(** Characterised standard cells.

    Cell names follow the paper's appendix convention:
    ["<FUNC><inputs>_<special>_<drive>"], e.g. [ND2_4] is a 2-input NAND of
    drive strength 4 and [NR2B_1] a 2-input NOR variant of drive 1. *)

type kind = Combinational | Flip_flop | Latch

type t = private {
  name : string;
  family : string;  (** function family, e.g. ["ND2"], shared by a drive ladder *)
  drive_strength : int;
  kind : kind;
  area : float;  (** µm² *)
  pins : Pin.t list;
  setup_time : float;  (** sequential cells; [0.] otherwise *)
  hold_time : float;
  clock_pin : string option;  (** sequential cells *)
  leakage : float;  (** static leakage power, nW *)
  pin_array : Pin.t array;
  (** [pins] as an array: a pin's index is its position in [pins], and
      netlists address an instance's pins by that index *)
  pin_arcs : Arc.t array array;
  (** per pin index: the arcs ending at the pin ([[||]] for inputs) *)
  pin_related : int array array;
  (** per pin index, per arc: index of the arc's related input pin, [-1]
      if the cell has no such input *)
  clock_index : int;  (** index of [clock_pin]; [-1] if none *)
}
(** Built by {!make} only, which derives the indexed fields from [pins]. *)

val make :
  name:string ->
  family:string ->
  drive_strength:int ->
  kind:kind ->
  area:float ->
  pins:Pin.t list ->
  ?setup_time:float ->
  ?hold_time:float ->
  ?clock_pin:string ->
  ?leakage:float ->
  unit ->
  t

val input_pins : t -> Pin.t list
(** Input pins excluding the clock pin. *)

val data_input_names : t -> string list

val output_pins : t -> Pin.t list

val find_pin : t -> string -> Pin.t option

val pin_index : t -> string -> int
(** Index of the named pin in [pin_array].  Raises [Not_found] if absent. *)

val arcs : t -> Arc.t list
(** All arcs of all output pins. *)

val input_capacitance : t -> string -> float
(** Capacitance of the named input pin.  Raises [Not_found] if absent. *)

val max_load : t -> float
(** Smallest [max_capacitance] across output pins; [infinity] if none set. *)

val is_sequential : t -> bool

val kind_to_string : kind -> string
val kind_of_string : string -> kind option
