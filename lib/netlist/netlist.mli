(** Mutable gate-level netlists.

    The synthesis flow builds a netlist once and then mutates it in place:
    resizing swaps an instance's library cell within its family, buffering
    inserts instances and rewires sinks, decomposition replaces one
    instance with several.  Instances and nets are addressed by dense
    integer ids; removed instances leave tombstones so ids stay stable.
    Pins are interned: a pin is its index in the cell's
    {!Vartune_liberty.Cell.t.pin_array}, and names appear only at the
    boundaries ({!add_instance}, {!pin_net}, {!connections}, snapshots). *)

type net_id = int
type inst_id = int

type pin_ref = { inst : inst_id; pin : int }
(** [pin] indexes the instance's cell pins. *)

type net = {
  net_id : net_id;
  net_name : string;
  mutable driver : pin_ref option;  (** [None] for primary inputs *)
  mutable sinks : pin_ref list;
}

type instance = {
  inst_id : inst_id;
  inst_name : string;
  mutable cell : Vartune_liberty.Cell.t;
  conns : net_id array;  (** per cell pin index: the connected net, [-1] if none *)
}

type t

val create : name:string -> t
val name : t -> string

val add_net : t -> ?net_name:string -> unit -> net_id
val net : t -> net_id -> net
val net_count : t -> int

val add_instance :
  t ->
  inst_name:string ->
  cell:Vartune_liberty.Cell.t ->
  inputs:(string * net_id) list ->
  outputs:(string * net_id) list ->
  inst_id
(** Creates an instance and hooks its pins onto the nets, converting the
    pin names to indices once.  Raises [Invalid_argument] if a pin is
    unknown, listed twice or on the wrong side, or if an output net
    already has a driver. *)

val remove_instance : t -> inst_id -> unit
(** Detaches the instance from all nets and tombstones it. *)

val instance : t -> inst_id -> instance
(** Raises [Invalid_argument] for removed or out-of-range ids. *)

val instance_opt : t -> inst_id -> instance option

val instance_slots : t -> int
(** Instance ids ever allocated, tombstones included: every id is below it. *)

val pin_net : instance -> string -> net_id
(** The net on the named pin.  Raises [Not_found] if the cell has no such
    pin or it is unconnected. *)

val connections : instance -> (string * net_id) list * (string * net_id) list
(** Connected (input, output) pins by name, in pin order. *)

val iter_inputs : instance -> f:(int -> net_id -> unit) -> unit
val iter_outputs : instance -> f:(int -> net_id -> unit) -> unit
(** Connected input (clock included) or output pins in pin order, with their nets. *)

val set_cell : t -> inst_id -> Vartune_liberty.Cell.t -> unit
(** Swaps the library cell of an instance (resizing).  The new cell must
    have the same pins (names and directions) at the same indices, as the
    drive strengths of one family do; raises [Invalid_argument] otherwise. *)

val rewire_input : t -> inst:inst_id -> pin:int -> net_id -> unit
(** Moves one input pin of an instance onto a different net. *)

val iter_instances : t -> f:(instance -> unit) -> unit
(** Live instances only, in id order. *)

val fold_instances : t -> init:'a -> f:('a -> instance -> 'a) -> 'a
val iter_nets : t -> f:(net -> unit) -> unit

val instance_count : t -> int
(** Live instances. *)

val mark_primary_input : t -> net_id -> unit
val mark_primary_output : t -> net_id -> unit
val set_clock : t -> net_id -> unit
val primary_inputs : t -> net_id list
val primary_outputs : t -> net_id list
val clock : t -> net_id option

val total_area : t -> float
val cell_usage : t -> (string * int) list
(** Instance count per cell name, sorted descending then by name. *)

val family_usage : t -> (string * int) list

val fresh_name : t -> prefix:string -> string
(** A fresh, design-unique instance name. *)

(** {1 Faithful snapshots}

    [export]/[import] capture the {e exact} internal state — tombstone
    slots, sink-list order (which fixes the float summation order of net
    loads, hence last-ulp timing bits) and the name counter — so a
    round-tripped netlist is indistinguishable from the original to
    every downstream analysis.  Rebuilding through {!add_instance} could
    not guarantee that.  Used by the persistent artifact store. *)

type repr = {
  repr_name : string;
  repr_nets : (string * (inst_id * string) option * (inst_id * string) list) array;
      (** per net: name, driver, sinks in live order; pins by name *)
  repr_instances :
    (string * Vartune_liberty.Cell.t * (string * net_id) list * (string * net_id) list)
    option
    array;  (** per slot: name, cell, inputs, outputs; [None] = tombstone *)
  repr_pis : net_id list;  (** in {!primary_inputs} order *)
  repr_pos : net_id list;
  repr_clock : net_id option;
  repr_name_counter : int;
}

val export : t -> repr

val import : repr -> t
(** Rebuilds a netlist from a snapshot, re-validating structural
    consistency (pins exist on their cells, net endpoints agree with
    instance connections).  Raises [Invalid_argument] on any
    inconsistency — malformed snapshots are rejected, not repaired. *)
