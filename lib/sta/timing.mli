(** Static timing analysis over a mapped netlist.

    Propagates arrival times and slews topologically, computing per-net
    load from sink pin capacitances plus a simple fanout-based wire model.
    Delays and output transitions come from the library LUTs via bilinear
    interpolation; when several arcs reach an output the worst arrival and
    slew win, and the winning arc is recorded for path backtracing.

    Internally the analysis runs over a levelized timing graph built once
    per netlist: one evaluation unit per driven output pin in topological
    order, with arcs shared from the cells, resolved input nets and
    net readers in flat integer arrays, and every per-net quantity held
    in a flat float array.  {!run} builds the
    graph and performs a full analysis; {!retime} re-propagates only the
    cone affected by a set of cell swaps, bit-identically to a fresh
    {!run}. *)

type config = {
  clock_period : float;  (** ns *)
  guard_band : float;  (** clock uncertainty subtracted from the period *)
  input_slew : float;  (** slew at primary inputs *)
  clock_slew : float;  (** slew of the clock edge at sequential cells *)
  output_load : float;  (** external load on primary outputs, pF *)
  wire_cap_base : float;  (** per-net wire capacitance, pF *)
  wire_cap_per_sink : float;  (** additional wire capacitance per sink, pF *)
  wire_caps : (Vartune_netlist.Netlist.net_id -> float) option;
  (** when set (post-placement), overrides the fanout-based wire model
      with actual per-net wire capacitance *)
}

val default_config : clock_period:float -> config
(** The paper's setup: 300 ps guard band, 50 ps input slew. *)

type endpoint =
  | Reg_data of { inst : Vartune_netlist.Netlist.inst_id; pin : string }
      (** a sequential cell's data input *)
  | Primary_output of Vartune_netlist.Netlist.net_id

type endpoint_timing = {
  endpoint : endpoint;
  arrival : float;
  required : float;
  slack : float;
}

type t

val run : config -> Vartune_netlist.Netlist.t -> t
(** Full timing analysis.  Raises {!Vartune_netlist.Check.Combinational_loop}
    on cyclic logic. *)

val retime : t -> changed:Vartune_netlist.Netlist.inst_id list -> t
(** [retime t ~changed] updates the analysis after the listed instances
    had their cell swapped ({!Vartune_netlist.Netlist.set_cell}), and
    returns the refreshed analysis.  Only the affected cone is
    re-propagated: forward from the changed instances and the nets whose
    load their input pins shifted, backward from every net whose slew,
    consumer arcs or endpoint requirement moved.  The result — every
    per-net value, winning arc, and both endpoint lists — is bit-for-bit
    identical to [run (config t) nl].

    [changed] must name every instance edited since the previous
    analysis.  Cell swaps that keep the pin interface (same output pins,
    same arc related-pin sequences, same sequential kind — family ladder
    moves) are applied in place, mutating and returning [t]; any other
    edit, including structural netlist changes (detected best-effort via
    net/instance counts and arc-shape checks), falls back to a full
    [run] on the current netlist and returns the fresh analysis.  Either
    way the caller must use the returned value. *)

val config : t -> config
val net_load : t -> Vartune_netlist.Netlist.net_id -> float
val net_arrival : t -> Vartune_netlist.Netlist.net_id -> float
val net_slew : t -> Vartune_netlist.Netlist.net_id -> float

val net_required : t -> Vartune_netlist.Netlist.net_id -> float
(** Latest time the net may settle while meeting every downstream
    endpoint; [infinity] for nets reaching no endpoint. *)

val net_slack : t -> Vartune_netlist.Netlist.net_id -> float
(** [net_required - net_arrival]. *)

val critical_arc : t -> Vartune_netlist.Netlist.net_id -> (Vartune_liberty.Arc.t * float) option
(** The arc (and its delay) that set the net's arrival, if its driver has
    timing arcs.  The arc's related pin names the winning input. *)

val endpoints : t -> endpoint_timing list
val worst_slack : t -> float
(** [infinity] when the design has no endpoints. *)

val net_min_arrival : t -> Vartune_netlist.Netlist.net_id -> float
(** Earliest register-launched arrival (min of rise/fall delays along the
    fastest path); [infinity] for nets reached only from primary inputs,
    which are unconstrained for hold without input delays. *)

val hold_endpoints : t -> endpoint_timing list
(** Hold checks at sequential data pins: [arrival] is the earliest
    register-launched arrival, [required] the cell's hold time, [slack]
    their difference.  Pins with no register-launched fanin are omitted. *)

val worst_hold_slack : t -> float
(** [infinity] when no hold check applies. *)

val worst_endpoint : t -> endpoint_timing option
val total_negative_slack : t -> float
(** Sum of negative endpoint slacks (a non-positive number). *)

val endpoint_name : Vartune_netlist.Netlist.t -> endpoint -> string
