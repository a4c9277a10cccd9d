module Netlist = Vartune_netlist.Netlist
module Check = Vartune_netlist.Check
module Cell = Vartune_liberty.Cell
module Pin = Vartune_liberty.Pin
module Arc = Vartune_liberty.Arc
module Obs = Vartune_obs.Obs

type config = {
  clock_period : float;
  guard_band : float;
  input_slew : float;
  clock_slew : float;
  output_load : float;
  wire_cap_base : float;
  wire_cap_per_sink : float;
  wire_caps : (Netlist.net_id -> float) option;
}

let default_config ~clock_period =
  {
    clock_period;
    guard_band = 0.3;
    input_slew = 0.05;
    clock_slew = 0.04;
    output_load = 0.004;
    wire_cap_base = 0.0002;
    wire_cap_per_sink = 0.00015;
    wire_caps = None;
  }

type endpoint =
  | Reg_data of { inst : Netlist.inst_id; pin : string }
  | Primary_output of Netlist.net_id

type endpoint_timing = {
  endpoint : endpoint;
  arrival : float;
  required : float;
  slack : float;
}

(* ------------------------------------------------------------------ *)
(* Levelized timing graph                                              *)
(* ------------------------------------------------------------------ *)

(* One evaluation unit per driven output pin, stored in topological
   order (the level schedule); an instance's units are contiguous.  An
   eval's arcs are its cell's own [pin_arcs] array, shared rather than
   copied; arc [ai] of an eval owns the flat arc slot [e_slot + ai].
   [e_arcs] is the field a cell swap (Netlist.set_cell) refreshes. *)
type eval = {
  e_inst : Netlist.inst_id;
  e_pin : int;  (* output pin index *)
  e_out_net : int;
  e_seq : bool;
  e_slot : int;
  mutable e_arcs : Arc.t array;
}

(* Endpoint slots are structural: which (instance, pin, net) triples
   and which primary outputs are checked.  The required values and the
   hold filter are re-read from the value arrays at each analysis. *)
type ep_slot =
  | Sreg of { inst : Netlist.inst_id; pin : string; net : int }
  | Spo of int

(* The readers of net [n] are entries [adj_off.(n)] to [adj_off.(n+1) - 1]
   (compressed sparse rows) of [fanout] — the reading eval, for the
   forward cone — and of [consumers] — its arc slot, whose delay enters
   the net's required time.  Sequential evals read nothing forward. *)
type graph = {
  nl : Netlist.t;
  n_nets : int;
  n_insts : int;  (* live instances at build time, for edit detection *)
  evals : eval array;  (* topological (level) order *)
  eval_of_net : int array;  (* net -> driving eval index, -1 if undriven *)
  inst_first : int array;  (* instance -> index of its first eval *)
  slot_in_net : int array;  (* arc slot -> input net, -1 = unconnected *)
  adj_off : int array;
  fanout : int array;
  consumers : int array;
  is_po : bool array;
  ep_slots : ep_slot array;
}

(* Structure-of-arrays timing state over the graph: one flat float
   array per quantity, indexed by net, plus the winning-arc index per
   net for path backtracing.  [run] allocates it; [retime] updates it
   in place. *)
type t = {
  cfg : config;
  graph : graph;
  loads : float array;
  arrivals : float array;
  slews : float array;
  requireds : float array;
  min_arrivals : float array;  (* earliest register-launched arrival *)
  crit_idx : int array;  (* net -> winning arc index into driver's e_arcs *)
  crit_delay : float array;  (* net -> winning arc's delay *)
  ep_seed : float array;  (* net -> tightest endpoint required, or inf *)
  arc_delay : float array;
      (* arc slot -> delay at the slot's current (input slew, load), as
         the forward pass last computed it; the backward pass reads it *)
  (* Arc.eval_into scratch (delay, min_delay, transition, spare).  The
     analysis is single-domain — the pool parallelises across analyses,
     never inside one — so one buffer per graph is race-free and keeps
     the forward sweep allocation-free. *)
  arc_out : float array;
  mutable eps : endpoint_timing list;
  mutable hold_eps : endpoint_timing list;
}

let config t = t.cfg

(* Netlist edits made after an analysis may create nets the arrays don't
   cover; those read as neutral defaults until the next [run]. *)
let in_range t nid = nid >= 0 && nid < Array.length t.loads
let net_load t nid = if in_range t nid then t.loads.(nid) else 0.0
let net_arrival t nid = if in_range t nid then t.arrivals.(nid) else 0.0
let net_slew t nid = if in_range t nid then t.slews.(nid) else t.cfg.input_slew
let net_required t nid = if in_range t nid then t.requireds.(nid) else infinity
let net_slack t nid = net_required t nid -. net_arrival t nid
let net_min_arrival t nid = if in_range t nid then t.min_arrivals.(nid) else infinity
let hold_endpoints t = t.hold_eps

let worst_hold_slack t =
  List.fold_left (fun acc ep -> Float.min acc ep.slack) infinity t.hold_eps

let critical_arc t nid =
  let k = if in_range t nid then t.graph.eval_of_net.(nid) else -1 in
  if k < 0 || t.crit_idx.(nid) < 0 then None
  else Some (t.graph.evals.(k).e_arcs.(t.crit_idx.(nid)), t.crit_delay.(nid))

let endpoints t = t.eps

(* ------------------------------------------------------------------ *)
(* Graph construction                                                  *)
(* ------------------------------------------------------------------ *)

let in_net (inst : Netlist.instance) rel = if rel < 0 then -1 else inst.conns.(rel)

(* Linear passes over the level schedule: size the eval and slot
   arrays, fill them while counting each net's readers, then place the
   readers by prefix sums. *)
let build_graph nl =
  let order = Check.topological_order nl in
  let n_nets = Netlist.net_count nl in
  let n_evals = ref 0 and n_slots = ref 0 in
  Array.iter
    (fun id ->
      let inst = Netlist.instance nl id in
      Netlist.iter_outputs inst ~f:(fun p _ ->
          incr n_evals;
          n_slots := !n_slots + Array.length inst.cell.pin_arcs.(p)))
    order;
  let none = { e_inst = -1; e_pin = 0; e_out_net = 0; e_seq = false; e_slot = 0; e_arcs = [||] } in
  let evals = Array.make !n_evals none in
  let eval_of_net = Array.make n_nets (-1) in
  let inst_first = Array.make (Netlist.instance_slots nl) !n_evals in
  let slot_in_net = Array.make !n_slots (-1) in
  let adj_off = Array.make (n_nets + 1) 0 in
  let k = ref 0 and slot = ref 0 in
  Array.iter
    (fun id ->
      let inst = Netlist.instance nl id in
      let cell = inst.Netlist.cell in
      let seq = Cell.is_sequential cell in
      inst_first.(id) <- !k;
      Netlist.iter_outputs inst ~f:(fun p out ->
          let e_arcs = cell.pin_arcs.(p) in
          evals.(!k) <- { e_inst = id; e_pin = p; e_out_net = out; e_seq = seq; e_slot = !slot; e_arcs };
          eval_of_net.(out) <- !k;
          Array.iteri
            (fun ai rel ->
              let innet = in_net inst rel in
              slot_in_net.(!slot + ai) <- innet;
              if innet >= 0 && not seq then adj_off.(innet + 1) <- adj_off.(innet + 1) + 1)
            cell.pin_related.(p);
          slot := !slot + Array.length e_arcs;
          incr k))
    order;
  for n = 1 to n_nets do
    adj_off.(n) <- adj_off.(n) + adj_off.(n - 1)
  done;
  let next = Array.sub adj_off 0 n_nets in
  let fanout = Array.make adj_off.(n_nets) 0 and consumers = Array.make adj_off.(n_nets) 0 in
  Array.iteri
    (fun k e ->
      if not e.e_seq then
        for s = e.e_slot to e.e_slot + Array.length e.e_arcs - 1 do
          let innet = slot_in_net.(s) in
          if innet >= 0 then begin
            fanout.(next.(innet)) <- k;
            consumers.(next.(innet)) <- s;
            next.(innet) <- next.(innet) + 1
          end
        done)
    evals;
  let is_po = Array.make n_nets false in
  List.iter (fun nid -> is_po.(nid) <- true) (Netlist.primary_outputs nl);
  (* endpoint slots in the order endpoint lists are reported: register
     data pins in instance order, then primary outputs *)
  let slots = ref [] in
  Netlist.iter_instances nl ~f:(fun inst ->
      let cell = inst.Netlist.cell in
      if Cell.is_sequential cell then
        Netlist.iter_inputs inst ~f:(fun p net ->
            if p <> cell.clock_index then
              slots := Sreg { inst = inst.inst_id; pin = cell.pin_array.(p).Pin.name; net } :: !slots));
  List.iter (fun nid -> slots := Spo nid :: !slots) (Netlist.primary_outputs nl);
  {
    nl;
    n_nets;
    n_insts = Netlist.instance_count nl;
    evals;
    eval_of_net;
    inst_first;
    slot_in_net;
    adj_off;
    fanout;
    consumers;
    is_po;
    ep_slots = Array.of_list (List.rev !slots);
  }

(* The evals of one instance: a contiguous run from [inst_first]. *)
let iter_evals g id f =
  let k = ref g.inst_first.(id) in
  while !k < Array.length g.evals && g.evals.(!k).e_inst = id do
    f !k;
    incr k
  done

(* ------------------------------------------------------------------ *)
(* Per-net load                                                        *)
(* ------------------------------------------------------------------ *)

(* Shared by the full analysis and the incremental load refresh so a
   recomputed load is bit-identical to a fresh one: the sink fold runs
   in the net's sink-list order either way. *)
let compute_net_load cfg g (net : Netlist.net) =
  let nid = net.Netlist.net_id in
  let sink_caps =
    List.fold_left
      (fun acc (r : Netlist.pin_ref) ->
        acc +. (Netlist.instance g.nl r.inst).cell.pin_array.(r.pin).Pin.capacitance)
      0.0 net.sinks
  in
  let n_sinks = List.length net.sinks in
  let wire =
    if n_sinks = 0 then 0.0
    else
      match cfg.wire_caps with
      | Some f -> f nid
      | None -> cfg.wire_cap_base +. (cfg.wire_cap_per_sink *. float_of_int n_sinks)
  in
  let external_load = if g.is_po.(nid) then cfg.output_load else 0.0 in
  sink_caps +. wire +. external_load

(* ------------------------------------------------------------------ *)
(* Node evaluation (shared by full run and retime)                     *)
(* ------------------------------------------------------------------ *)

let c_sta_runs = Obs.Counter.make "sta.runs"
let c_retimes = Obs.Counter.make "sta.retimes"
let c_node_evals = Obs.Counter.make "sta.node_evals"
let c_required_evals = Obs.Counter.make "sta.required_evals"

(* Forward evaluation of one node: fused arrival/slew (late) and
   min-arrival (hold) propagation over the node's arcs.  Pure in the
   upstream arrays, so re-evaluating with unchanged inputs reproduces
   the stored values bit-for-bit — the invariant [retime] rests on.
   Each arc's delay is also left in [arc_delay] for the backward pass. *)
let eval_forward t k =
  Obs.Counter.incr c_node_evals;
  let g = t.graph in
  let e = Array.unsafe_get g.evals k in
  let out = e.e_out_net in
  let arcs = e.e_arcs in
  let n = Array.length arcs in
  if n = 0 then begin
    (* tie cells: constant output, clean edge, no hold constraint *)
    t.arrivals.(out) <- 0.0;
    t.slews.(out) <- t.cfg.input_slew;
    t.min_arrivals.(out) <- infinity;
    t.crit_idx.(out) <- -1
  end
  else begin
    let load = t.loads.(out) in
    let best = ref neg_infinity in
    let best_slew = ref 0.0 in
    let best_idx = ref (-1) in
    let best_delay = ref 0.0 in
    let mina = ref infinity in
    for ai = 0 to n - 1 do
      let arc = Array.unsafe_get arcs ai in
      let innet = Array.unsafe_get g.slot_in_net (e.e_slot + ai) in
      let in_slew =
        if e.e_seq then t.cfg.clock_slew
        else if innet < 0 then t.cfg.input_slew
        else Array.unsafe_get t.slews innet
      in
      let in_arrival = if e.e_seq || innet < 0 then 0.0 else Array.unsafe_get t.arrivals innet in
      let in_min =
        if e.e_seq then 0.0 else if innet < 0 then infinity else Array.unsafe_get t.min_arrivals innet
      in
      (* One fused segment search yields delay, min_delay and
         transition together (the arc's tables share axes); each value
         is bit-identical to the scalar Arc.delay/min_delay/transition
         queries. *)
      Arc.eval_into arc ~slew:in_slew ~load ~out:t.arc_out;
      let delay = Array.unsafe_get t.arc_out 0 in
      let out_slew = Array.unsafe_get t.arc_out 2 in
      Array.unsafe_set t.arc_delay (e.e_slot + ai) delay;
      if in_arrival +. delay > !best then begin
        best := in_arrival +. delay;
        best_idx := ai;
        best_delay := delay
      end;
      if out_slew > !best_slew then best_slew := out_slew;
      if in_min < infinity then begin
        let d = Array.unsafe_get t.arc_out 1 in
        if in_min +. d < !mina then mina := in_min +. d
      end
    done;
    t.arrivals.(out) <- !best;
    t.slews.(out) <- !best_slew;
    t.min_arrivals.(out) <- !mina;
    t.crit_idx.(out) <- !best_idx;
    t.crit_delay.(out) <- !best_delay
  end

(* Required time of one net, recomputed from scratch: the tightest
   endpoint seed on the net, tightened by every consuming arc.  Also
   pure in (ep_seed, downstream requireds, arc delays).  A consumer's
   delay is the one its forward evaluation left in [arc_delay], taken at
   this net's slew and the consumer's load; it is current because every
   eval whose arcs, input slew or load changed is re-evaluated forward
   before requireds are recomputed. *)
let required_of_net t nid =
  Obs.Counter.incr c_required_evals;
  let g = t.graph in
  let r = ref t.ep_seed.(nid) in
  for c = g.adj_off.(nid) to g.adj_off.(nid + 1) - 1 do
    let out = (Array.unsafe_get g.evals (Array.unsafe_get g.fanout c)).e_out_net in
    let delay = Array.unsafe_get t.arc_delay (Array.unsafe_get g.consumers c) in
    r := Float.min !r (t.requireds.(out) -. delay)
  done;
  !r

(* ------------------------------------------------------------------ *)
(* Endpoint lists                                                      *)
(* ------------------------------------------------------------------ *)

let data_required cfg (cell : Cell.t) =
  cfg.clock_period -. cfg.guard_band -. cell.Cell.setup_time

let po_required cfg = cfg.clock_period -. cfg.guard_band

let rebuild_ep_seed t =
  let g = t.graph in
  let seed = t.ep_seed in
  Array.fill seed 0 (Array.length seed) infinity;
  Array.iter
    (function
      | Sreg { inst; net; _ } ->
        let cell = (Netlist.instance g.nl inst).Netlist.cell in
        seed.(net) <- Float.min seed.(net) (data_required t.cfg cell)
      | Spo net -> seed.(net) <- Float.min seed.(net) (po_required t.cfg))
    g.ep_slots

let rebuild_endpoint_lists t =
  let g = t.graph in
  let eps = ref [] and hold = ref [] in
  Array.iter
    (function
      | Sreg { inst; pin; net } ->
        let cell = (Netlist.instance g.nl inst).Netlist.cell in
        let arrival = t.arrivals.(net) in
        let required = data_required t.cfg cell in
        eps :=
          { endpoint = Reg_data { inst; pin }; arrival; required;
            slack = required -. arrival }
          :: !eps;
        if t.min_arrivals.(net) < infinity then begin
          let arrival = t.min_arrivals.(net) in
          let required = cell.Cell.hold_time in
          hold :=
            { endpoint = Reg_data { inst; pin }; arrival; required;
              slack = arrival -. required }
            :: !hold
        end
      | Spo net ->
        let arrival = t.arrivals.(net) in
        let required = po_required t.cfg in
        eps :=
          { endpoint = Primary_output net; arrival; required;
            slack = required -. arrival }
          :: !eps)
    g.ep_slots;
  t.eps <- List.rev !eps;
  t.hold_eps <- List.rev !hold

(* ------------------------------------------------------------------ *)
(* Full analysis                                                       *)
(* ------------------------------------------------------------------ *)

let analyse_full t =
  let g = t.graph in
  Netlist.iter_nets g.nl ~f:(fun net ->
      t.loads.(net.Netlist.net_id) <- compute_net_load t.cfg g net);
  Array.fill t.arrivals 0 g.n_nets 0.0;
  Array.fill t.slews 0 g.n_nets t.cfg.input_slew;
  Array.fill t.min_arrivals 0 g.n_nets infinity;
  Array.fill t.crit_idx 0 g.n_nets (-1);
  let nevals = Array.length g.evals in
  (* one span over the whole sweep, not per lookup: eval_forward runs
     millions of times and a span each would swamp the trace.  The GC
     delta attributed here is the LUT-interpolation allocation cost. *)
  Obs.span "sta.forward"
    ~attrs:(fun () -> [ ("evals", string_of_int nevals) ])
    (fun () ->
      for k = 0 to nevals - 1 do
        eval_forward t k
      done);
  rebuild_ep_seed t;
  (* backward: in reverse level order a net's consumers have all been
     processed before its driver, so one sweep settles every driven
     net; driverless nets (primary inputs) follow, depending only on
     already-settled downstream requireds *)
  for k = nevals - 1 downto 0 do
    let out = g.evals.(k).e_out_net in
    t.requireds.(out) <- required_of_net t out
  done;
  for nid = 0 to g.n_nets - 1 do
    if g.eval_of_net.(nid) < 0 then t.requireds.(nid) <- required_of_net t nid
  done;
  rebuild_endpoint_lists t

let run cfg nl =
  Obs.span "sta.run"
    ~attrs:(fun () -> [ ("nets", string_of_int (Netlist.net_count nl)) ])
  @@ fun () ->
  Obs.Counter.incr c_sta_runs;
  let graph = build_graph nl in
  let n = graph.n_nets in
  let t =
    {
      cfg;
      graph;
      loads = Array.make n 0.0;
      arrivals = Array.make n 0.0;
      slews = Array.make n cfg.input_slew;
      requireds = Array.make n infinity;
      min_arrivals = Array.make n infinity;
      crit_idx = Array.make n (-1);
      crit_delay = Array.make n 0.0;
      ep_seed = Array.make n infinity;
      arc_delay = Array.make (Array.length graph.slot_in_net) 0.0;
      arc_out = Array.make 4 0.0;
      eps = [];
      hold_eps = [];
    }
  in
  analyse_full t;
  t

(* ------------------------------------------------------------------ *)
(* Incremental re-timing                                               *)
(* ------------------------------------------------------------------ *)

(* A changed instance is refreshable in place when its footprint still
   matches the graph: same sequential kind, and per output the same
   number of arcs reading the same input nets as the edges built from
   the old cell.  Family ladders satisfy this; anything else falls back
   to a full rebuild. *)
let refreshable g id =
  match Netlist.instance_opt g.nl id with
  | Some inst when id < Array.length g.inst_first ->
    let cell = inst.Netlist.cell in
    let ok = ref true in
    iter_evals g id (fun k ->
        let e = g.evals.(k) in
        let related = cell.pin_related.(e.e_pin) in
        let rec same_nets ai =
          ai = Array.length related
          || (in_net inst related.(ai) = g.slot_in_net.(e.e_slot + ai) && same_nets (ai + 1))
        in
        ok :=
          !ok && e.e_seq = Cell.is_sequential cell
          && Array.length related = Array.length e.e_arcs
          && same_nets 0);
    !ok
  | Some _ | None -> false

(* mark the input nets of eval [e] for required-time recomputation *)
let mark_inputs g breq e =
  for s = e.e_slot to e.e_slot + Array.length e.e_arcs - 1 do
    if g.slot_in_net.(s) >= 0 then breq.(g.slot_in_net.(s)) <- true
  done

let bits = Int64.bits_of_float

let retime t ~changed =
  let g = t.graph in
  let nl = g.nl in
  if
    Netlist.net_count nl <> g.n_nets
    || Netlist.instance_count nl <> g.n_insts
    || not (List.for_all (refreshable g) changed)
  then run t.cfg nl (* structural edits: rebuild the graph from scratch *)
  else begin
    Obs.span "sta.retime"
      ~attrs:(fun () -> [ ("changed", string_of_int (List.length changed)) ])
    @@ fun () ->
    Obs.Counter.incr c_retimes;
    let nevals = Array.length g.evals in
    let fwd_dirty = Array.make nevals false in
    let breq = Array.make g.n_nets false in
    let seen = Array.make (Array.length g.inst_first) false in
    List.iter
      (fun inst_id ->
        if not seen.(inst_id) then begin
          seen.(inst_id) <- true;
          let inst = Netlist.instance nl inst_id in
          (* refresh the instance's evaluation units from the new cell;
             its new arcs change this node's required contributions *)
          iter_evals g inst_id (fun k ->
              let e = g.evals.(k) in
              e.e_arcs <- inst.Netlist.cell.pin_arcs.(e.e_pin);
              fwd_dirty.(k) <- true;
              mark_inputs g breq e);
          (* the new cell's input pin capacitances change the loads of
             the nets feeding this instance *)
          Netlist.iter_inputs inst ~f:(fun _ nid ->
              let old = t.loads.(nid) in
              let fresh = compute_net_load t.cfg g (Netlist.net nl nid) in
              if bits fresh <> bits old then begin
                t.loads.(nid) <- fresh;
                match g.eval_of_net.(nid) with
                | -1 -> ()
                | k ->
                  fwd_dirty.(k) <- true;
                  (* a load change shifts the driver's arc delays, and
                     with them its required contributions upstream *)
                  if not g.evals.(k).e_seq then mark_inputs g breq g.evals.(k)
              end)
        end)
      changed;
    (* forward cone: sweep the level schedule, re-evaluating dirty
       nodes and marking their fanout only when an output actually
       changed (bitwise), so the cone stays as narrow as the values
       allow *)
    for k = 0 to nevals - 1 do
      if fwd_dirty.(k) then begin
        let out = g.evals.(k).e_out_net in
        let oa = t.arrivals.(out) and os = t.slews.(out) and om = t.min_arrivals.(out) in
        eval_forward t k;
        let slew_changed = bits os <> bits t.slews.(out) in
        if slew_changed then breq.(out) <- true;
        if
          slew_changed
          || bits oa <> bits t.arrivals.(out)
          || bits om <> bits t.min_arrivals.(out)
        then
          for c = g.adj_off.(out) to g.adj_off.(out + 1) - 1 do
            fwd_dirty.(g.fanout.(c)) <- true
          done
      end
    done;
    (* required-time fan-in: endpoint seeds that moved (a sequential
       cell swap changes its setup time) start the backward cone *)
    let old_seed = Array.copy t.ep_seed in
    rebuild_ep_seed t;
    for nid = 0 to g.n_nets - 1 do
      if bits old_seed.(nid) <> bits t.ep_seed.(nid) then breq.(nid) <- true
    done;
    for k = nevals - 1 downto 0 do
      let e = g.evals.(k) in
      let out = e.e_out_net in
      if breq.(out) then begin
        let old = t.requireds.(out) in
        let fresh = required_of_net t out in
        t.requireds.(out) <- fresh;
        if bits old <> bits fresh && not e.e_seq then mark_inputs g breq e
      end
    done;
    for nid = 0 to g.n_nets - 1 do
      if breq.(nid) && g.eval_of_net.(nid) < 0 then
        t.requireds.(nid) <- required_of_net t nid
    done;
    rebuild_endpoint_lists t;
    t
  end

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

let worst_slack t =
  List.fold_left (fun acc ep -> Float.min acc ep.slack) infinity t.eps

let worst_endpoint t =
  match t.eps with
  | [] -> None
  | first :: rest ->
    Some (List.fold_left (fun acc ep -> if ep.slack < acc.slack then ep else acc) first rest)

let total_negative_slack t =
  List.fold_left (fun acc ep -> if ep.slack < 0.0 then acc +. ep.slack else acc) 0.0 t.eps

let endpoint_name nl = function
  | Reg_data { inst; pin } ->
    Printf.sprintf "%s/%s" (Netlist.instance nl inst).inst_name pin
  | Primary_output nid -> (Netlist.net nl nid).net_name
