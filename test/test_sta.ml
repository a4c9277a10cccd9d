(* Tests for Vartune_sta: Timing and Path, on hand-built netlists where
   arrival times can be computed by hand from the library LUTs. *)

module Netlist = Vartune_netlist.Netlist
module Timing = Vartune_sta.Timing
module Path = Vartune_sta.Path
module Library = Vartune_liberty.Library
module Cell = Vartune_liberty.Cell
module Pin = Vartune_liberty.Pin
module Arc = Vartune_liberty.Arc

let lib = Lazy.force Helpers.nominal_small
let inv = Library.find lib "INV_1"
let dff = Library.find lib "DFF_1"

let config = Timing.default_config ~clock_period:2.0

(* PI -> k inverters -> DFF.D *)
let inverter_chain k =
  let nl = Netlist.create ~name:"chain" in
  let clk = Netlist.add_net nl ~net_name:"clk" () in
  Netlist.set_clock nl clk;
  let a = Netlist.add_net nl ~net_name:"a" () in
  Netlist.mark_primary_input nl a;
  let last =
    List.fold_left
      (fun prev i ->
        let out = Netlist.add_net nl () in
        ignore
          (Netlist.add_instance nl
             ~inst_name:(Printf.sprintf "inv%d" i)
             ~cell:inv ~inputs:[ ("A", prev) ] ~outputs:[ ("Z", out) ]);
        out)
      a
      (List.init k Fun.id)
  in
  let q = Netlist.add_net nl () in
  ignore
    (Netlist.add_instance nl ~inst_name:"capture" ~cell:dff
       ~inputs:[ ("D", last); ("CK", clk) ]
       ~outputs:[ ("Q", q) ]);
  nl

let test_arrival_matches_manual () =
  let nl = inverter_chain 3 in
  let timing = Timing.run config nl in
  (* replay the propagation by hand *)
  let inv_arc = List.hd (Cell.arcs inv) in
  let dff_d_cap = Cell.input_capacitance dff "D" in
  let inv_a_cap = Cell.input_capacitance inv "A" in
  let wire = config.Timing.wire_cap_base +. config.Timing.wire_cap_per_sink in
  let mid_load = inv_a_cap +. wire in
  let last_load = dff_d_cap +. wire in
  let slew = ref config.Timing.input_slew in
  let arrival = ref 0.0 in
  List.iteri
    (fun i () ->
      let load = if i = 2 then last_load else mid_load in
      arrival := !arrival +. Arc.delay inv_arc ~slew:!slew ~load;
      slew := Arc.transition inv_arc ~slew:!slew ~load)
    [ (); (); () ];
  match Timing.endpoints timing with
  | [ ep ] ->
    Helpers.check_float ~eps:1e-9 "arrival" !arrival ep.Timing.arrival;
    Helpers.check_float ~eps:1e-9 "required"
      (config.Timing.clock_period -. config.Timing.guard_band -. dff.Cell.setup_time)
      ep.Timing.required;
    Helpers.check_float ~eps:1e-9 "slack" (ep.Timing.required -. ep.Timing.arrival)
      ep.Timing.slack
  | eps -> Alcotest.failf "expected 1 endpoint, got %d" (List.length eps)

let test_worst_slack_and_tns () =
  let nl = inverter_chain 2 in
  let timing = Timing.run config nl in
  let ws = Timing.worst_slack timing in
  Alcotest.(check bool) "positive at 2ns" true (ws > 0.0);
  Helpers.check_float "tns zero when met" 0.0 (Timing.total_negative_slack timing);
  (* impossibly tight clock: negative slack and negative tns *)
  let tight = Timing.run (Timing.default_config ~clock_period:0.31) nl in
  Alcotest.(check bool) "negative at 0.31ns" true (Timing.worst_slack tight < 0.0);
  Alcotest.(check bool) "tns negative" true (Timing.total_negative_slack tight < 0.0)

let test_path_backtrace () =
  let nl = inverter_chain 5 in
  let timing = Timing.run config nl in
  let paths = Path.worst_per_endpoint timing nl in
  match paths with
  | [ p ] ->
    Alcotest.(check int) "depth = chain length" 5 (Path.depth p);
    Helpers.check_float ~eps:1e-9 "mean = arrival (eq 5)" p.Path.arrival (Path.mean_delay p);
    (* steps come launch-to-capture: loads decrease only at the end *)
    let cells = List.map (fun (s : Path.step) -> s.Path.cell.Cell.name) p.Path.steps in
    Alcotest.(check (list string)) "all inverters"
      [ "INV_1"; "INV_1"; "INV_1"; "INV_1"; "INV_1" ]
      cells
  | other -> Alcotest.failf "expected 1 path, got %d" (List.length other)

let test_launch_from_register () =
  (* DFF -> INV -> DFF: the path starts with the launching flop's CK->Q *)
  let nl = Netlist.create ~name:"reg2reg" in
  let clk = Netlist.add_net nl ~net_name:"clk" () in
  Netlist.set_clock nl clk;
  let d0 = Netlist.add_net nl () in
  Netlist.mark_primary_input nl d0;
  let q0 = Netlist.add_net nl () in
  let z = Netlist.add_net nl () in
  let q1 = Netlist.add_net nl () in
  ignore
    (Netlist.add_instance nl ~inst_name:"launch" ~cell:dff
       ~inputs:[ ("D", d0); ("CK", clk) ]
       ~outputs:[ ("Q", q0) ]);
  ignore
    (Netlist.add_instance nl ~inst_name:"mid" ~cell:inv ~inputs:[ ("A", q0) ]
       ~outputs:[ ("Z", z) ]);
  ignore
    (Netlist.add_instance nl ~inst_name:"capture" ~cell:dff
       ~inputs:[ ("D", z); ("CK", clk) ]
       ~outputs:[ ("Q", q1) ]);
  let timing = Timing.run config nl in
  let capture_ep =
    List.find
      (fun (ep : Timing.endpoint_timing) ->
        match ep.Timing.endpoint with
        | Timing.Reg_data { pin = "D"; inst } ->
          (Netlist.instance nl inst).Netlist.inst_name = "capture"
        | _ -> false)
      (Timing.endpoints timing)
  in
  let p = Path.extract timing nl capture_ep in
  Alcotest.(check int) "depth includes launch flop" 2 (Path.depth p);
  (match p.Path.steps with
  | first :: _ ->
    Alcotest.(check string) "launches from DFF" "DFF" first.Path.cell.Cell.family;
    Helpers.check_float "launch slew is the clock slew" config.Timing.clock_slew
      first.Path.input_slew
  | [] -> Alcotest.fail "empty path");
  (* the launch flop's own D is also an endpoint: 2 endpoints total *)
  Alcotest.(check int) "endpoint count" 2 (List.length (Timing.endpoints timing))

let test_net_required_consistency () =
  let nl = inverter_chain 4 in
  let timing = Timing.run config nl in
  (* on a single path, net slack equals the endpoint slack everywhere *)
  let ws = Timing.worst_slack timing in
  Netlist.iter_nets nl ~f:(fun net ->
      let nid = net.Netlist.net_id in
      if net.Netlist.sinks <> [] && Some nid <> Netlist.clock nl then
        Helpers.check_float ~eps:1e-9 "uniform slack on a chain" ws (Timing.net_slack timing nid))

let test_out_of_range_net_defaults () =
  let nl = inverter_chain 1 in
  let timing = Timing.run config nl in
  let fresh = Netlist.add_net nl () in
  Helpers.check_float "load default" 0.0 (Timing.net_load timing fresh);
  Helpers.check_float "slew default" config.Timing.input_slew (Timing.net_slew timing fresh);
  Alcotest.(check bool) "required default" true (Timing.net_required timing fresh = infinity)

let test_fanout_raises_load () =
  (* one inverter driving 1 vs 4 sinks: load and delay grow *)
  let build sinks =
    let nl = Netlist.create ~name:"fan" in
    let a = Netlist.add_net nl () in
    Netlist.mark_primary_input nl a;
    let z = Netlist.add_net nl () in
    ignore
      (Netlist.add_instance nl ~inst_name:"drv" ~cell:inv ~inputs:[ ("A", a) ]
         ~outputs:[ ("Z", z) ]);
    for i = 0 to sinks - 1 do
      let out = Netlist.add_net nl () in
      ignore
        (Netlist.add_instance nl
           ~inst_name:(Printf.sprintf "sink%d" i)
           ~cell:inv ~inputs:[ ("A", z) ] ~outputs:[ ("Z", out) ]);
      Netlist.mark_primary_output nl out
    done;
    let timing = Timing.run config nl in
    (Timing.net_load timing z, Timing.net_arrival timing z)
  in
  let load1, arr1 = build 1 in
  let load4, arr4 = build 4 in
  Alcotest.(check bool) "load grows" true (load4 > load1);
  Alcotest.(check bool) "arrival grows" true (arr4 > arr1)

(* ------------------------------- Hold -------------------------------- *)

let test_hold_unconstrained_from_pi () =
  (* a D pin fed only from a primary input has no hold check *)
  let nl = inverter_chain 2 in
  let timing = Timing.run config nl in
  Alcotest.(check int) "no hold endpoints" 0 (List.length (Timing.hold_endpoints timing));
  Alcotest.(check bool) "worst hold n/a" true (Timing.worst_hold_slack timing = infinity)

let reg2reg k =
  (* DFF -> k inverters -> DFF *)
  let nl = Netlist.create ~name:"r2r" in
  let clk = Netlist.add_net nl ~net_name:"clk" () in
  Netlist.set_clock nl clk;
  let d0 = Netlist.add_net nl () in
  Netlist.mark_primary_input nl d0;
  let q0 = Netlist.add_net nl () in
  ignore
    (Netlist.add_instance nl ~inst_name:"launch" ~cell:dff
       ~inputs:[ ("D", d0); ("CK", clk) ]
       ~outputs:[ ("Q", q0) ]);
  let last =
    List.fold_left
      (fun prev i ->
        let out = Netlist.add_net nl () in
        ignore
          (Netlist.add_instance nl
             ~inst_name:(Printf.sprintf "i%d" i)
             ~cell:inv ~inputs:[ ("A", prev) ] ~outputs:[ ("Z", out) ]);
        out)
      q0
      (List.init k Fun.id)
  in
  let q1 = Netlist.add_net nl () in
  ignore
    (Netlist.add_instance nl ~inst_name:"capture" ~cell:dff
       ~inputs:[ ("D", last); ("CK", clk) ]
       ~outputs:[ ("Q", q1) ]);
  nl

let test_hold_register_launched () =
  let nl = reg2reg 1 in
  let timing = Timing.run config nl in
  (* only the capture flop's D has a register-launched fanin *)
  match Timing.hold_endpoints timing with
  | [ ep ] ->
    Alcotest.(check bool) "hold met (clk->q + inv > hold)" true (ep.Timing.slack > 0.0);
    Helpers.check_float "required is the hold time" dff.Cell.hold_time ep.Timing.required;
    Alcotest.(check bool) "min arrival below max arrival" true
      (ep.Timing.arrival
      <= (List.hd (List.filter
                     (fun (e : Timing.endpoint_timing) -> e.Timing.endpoint = ep.Timing.endpoint)
                     (Timing.endpoints timing))).Timing.arrival
         +. 1e-12)
  | eps -> Alcotest.failf "expected 1 hold endpoint, got %d" (List.length eps)

let test_hold_min_arrival_grows_with_depth () =
  let min_at k =
    let nl = reg2reg k in
    let timing = Timing.run config nl in
    match Timing.hold_endpoints timing with
    | [ ep ] -> ep.Timing.arrival
    | _ -> Alcotest.fail "one hold endpoint expected"
  in
  Alcotest.(check bool) "monotone" true (min_at 1 < min_at 4)

(* ------------------------------- Power ------------------------------- *)

let test_power_positive_and_composed () =
  let nl = reg2reg 3 in
  let timing = Timing.run config nl in
  let module Power = Vartune_sta.Power in
  let r = Power.estimate timing nl in
  Alcotest.(check bool) "switching > 0" true (r.Power.switching_mw > 0.0);
  Alcotest.(check bool) "internal > 0" true (r.Power.internal_mw > 0.0);
  Alcotest.(check bool) "leakage > 0" true (r.Power.leakage_mw > 0.0);
  Helpers.check_float ~eps:1e-9 "total is the sum"
    (r.Power.switching_mw +. r.Power.internal_mw +. r.Power.leakage_mw)
    r.Power.total_mw

let test_power_scales_with_frequency () =
  let nl = reg2reg 3 in
  let module Power = Vartune_sta.Power in
  let at period =
    Power.estimate (Timing.run (Timing.default_config ~clock_period:period) nl) nl
  in
  let fast = at 1.0 and slow = at 2.0 in
  (* dynamic power doubles at half the period; leakage is unchanged *)
  Helpers.check_float ~eps:1e-6 "switching x2" (2.0 *. slow.Power.switching_mw)
    fast.Power.switching_mw;
  Helpers.check_float ~eps:1e-9 "leakage constant" slow.Power.leakage_mw fast.Power.leakage_mw

let test_power_scales_with_activity () =
  let nl = reg2reg 3 in
  let module Power = Vartune_sta.Power in
  let timing = Timing.run config nl in
  let lo = Power.estimate ~activity:0.1 timing nl in
  let hi = Power.estimate ~activity:0.2 timing nl in
  Alcotest.(check bool) "more activity more power" true
    (hi.Power.total_mw > lo.Power.total_mw);
  Helpers.check_float ~eps:1e-9 "leakage unchanged" lo.Power.leakage_mw hi.Power.leakage_mw

(* --------------------------- Timing report --------------------------- *)

let test_timing_report () =
  let module TR = Vartune_sta.Timing_report in
  let nl = reg2reg 4 in
  let timing = Timing.run config nl in
  let text = TR.report ~max_paths:2 timing nl in
  let contains sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length text && (String.sub text i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has summary" true (contains "worst setup slack");
  Alcotest.(check bool) "has path header" true (contains "Path 1:");
  Alcotest.(check bool) "has cells" true (contains "INV_1");
  Alcotest.(check bool) "states MET" true (contains "MET");
  Alcotest.(check bool) "summary mentions hold" true (contains "hold")

let test_depth_histogram () =
  let nl = inverter_chain 3 in
  let timing = Timing.run config nl in
  let paths = Path.worst_per_endpoint timing nl in
  Alcotest.(check (list (pair int int))) "histogram" [ (3, 1) ] (Path.depth_histogram paths)

(* --------------------------- incremental retime -------------------- *)

module Rng = Vartune_util.Rng

let bits = Int64.bits_of_float

(* Bitwise equality of two analyses over every observable: per-net
   values, winning arcs, and both endpoint lists. *)
let check_same_analysis msg nl a b =
  let check_net what got want nid =
    if bits got <> bits want then
      Alcotest.failf "%s: net %d %s: %h <> %h" msg nid what got want
  in
  for nid = 0 to Netlist.net_count nl - 1 do
    check_net "load" (Timing.net_load a nid) (Timing.net_load b nid) nid;
    check_net "arrival" (Timing.net_arrival a nid) (Timing.net_arrival b nid) nid;
    check_net "slew" (Timing.net_slew a nid) (Timing.net_slew b nid) nid;
    check_net "required" (Timing.net_required a nid) (Timing.net_required b nid) nid;
    check_net "min_arrival" (Timing.net_min_arrival a nid) (Timing.net_min_arrival b nid)
      nid
  done;
  for nid = 0 to Netlist.net_count nl - 1 do
    match (Timing.critical_arc a nid, Timing.critical_arc b nid) with
    | None, None -> ()
    | Some (aa, da), Some (ab, db) ->
      if bits da <> bits db || aa.Arc.related_pin <> ab.Arc.related_pin then
        Alcotest.failf "%s: net %d winning arc differs" msg nid
    | _ -> Alcotest.failf "%s: net %d crit presence differs" msg nid
  done;
  let check_eps what ea eb =
    if List.length ea <> List.length eb then
      Alcotest.failf "%s: %s count differs" msg what;
    List.iter2
      (fun (x : Timing.endpoint_timing) (y : Timing.endpoint_timing) ->
        if
          x.endpoint <> y.endpoint
          || bits x.arrival <> bits y.arrival
          || bits x.required <> bits y.required
          || bits x.slack <> bits y.slack
        then Alcotest.failf "%s: %s entry differs" msg what)
      ea eb
  in
  check_eps "endpoints" (Timing.endpoints a) (Timing.endpoints b);
  check_eps "hold endpoints" (Timing.hold_endpoints a) (Timing.hold_endpoints b)

(* same-family ladder of a cell, excluding the cell itself *)
let ladder_of cell =
  List.filter
    (fun (c : Cell.t) ->
      c.Cell.family = cell.Cell.family && c.Cell.name <> cell.Cell.name)
    (Library.cells lib)

let test_retime_chain_resize () =
  let nl = inverter_chain 4 in
  let t = Timing.run config nl in
  (* resize the middle inverter up the ladder and retime *)
  let target = ref None in
  Netlist.iter_instances nl ~f:(fun inst ->
      if inst.Netlist.inst_name = "inv2" then target := Some inst.inst_id);
  let inst_id = Option.get !target in
  let bigger = Library.find lib "INV_4" in
  Netlist.set_cell nl inst_id bigger;
  let t = Timing.retime t ~changed:[ inst_id ] in
  check_same_analysis "chain resize" nl t (Timing.run config nl);
  (* a second move on the same analysis: back down the ladder *)
  Netlist.set_cell nl inst_id (Library.find lib "INV_1");
  let t = Timing.retime t ~changed:[ inst_id ] in
  check_same_analysis "chain resize back" nl t (Timing.run config nl)

let test_retime_empty_and_counters () =
  let nl = inverter_chain 3 in
  let t = Timing.run config nl in
  let evals_before = Vartune_obs.Obs.counter_value "sta.node_evals" in
  let t' = Timing.retime t ~changed:[] in
  check_same_analysis "empty retime" nl t' (Timing.run config nl);
  ignore evals_before

(* structural edits must fall back to a full rebuild, not corrupt state *)
let test_retime_structural_fallback () =
  let nl = inverter_chain 3 in
  let t = Timing.run config nl in
  let extra = Netlist.add_net nl () in
  Netlist.mark_primary_input nl extra;
  let out = Netlist.add_net nl () in
  ignore
    (Netlist.add_instance nl ~inst_name:"tap" ~cell:inv
       ~inputs:[ ("A", extra) ]
       ~outputs:[ ("Z", out) ]);
  let t = Timing.retime t ~changed:[] in
  check_same_analysis "structural fallback" nl t (Timing.run config nl)

(* Random DAG netlists under random same-family resize sequences: after
   every batch of moves, retime must equal a fresh run bit-for-bit. *)
let random_dag rng =
  let families = [ ("INV", [ "A" ]); ("ND2", [ "A"; "B" ]); ("XO2", [ "A"; "B" ]) ] in
  let cells_of fam =
    List.filter (fun (c : Cell.t) -> c.Cell.family = fam) (Library.cells lib)
  in
  let pick xs = List.nth xs (Rng.int rng (List.length xs)) in
  let nl = Netlist.create ~name:"rand" in
  let clk = Netlist.add_net nl ~net_name:"clk" () in
  Netlist.set_clock nl clk;
  let n_pi = 2 + Rng.int rng 3 in
  let avail =
    ref
      (List.init n_pi (fun i ->
           let n = Netlist.add_net nl ~net_name:(Printf.sprintf "pi%d" i) () in
           Netlist.mark_primary_input nl n;
           n))
  in
  let movable = ref [] in
  let n_gates = 5 + Rng.int rng 20 in
  for i = 0 to n_gates - 1 do
    let fam, pins = pick families in
    let cell = pick (cells_of fam) in
    let inputs = List.map (fun p -> (p, pick !avail)) pins in
    let out = Netlist.add_net nl () in
    let id =
      Netlist.add_instance nl
        ~inst_name:(Printf.sprintf "g%d" i)
        ~cell ~inputs ~outputs:[ ("Z", out) ]
    in
    movable := id :: !movable;
    avail := out :: !avail
  done;
  (* capture a few nets in registers; their Q nets feed nothing, which
     is fine for timing *)
  let n_regs = 1 + Rng.int rng 3 in
  for i = 0 to n_regs - 1 do
    let d = pick !avail in
    let q = Netlist.add_net nl () in
    let id =
      Netlist.add_instance nl
        ~inst_name:(Printf.sprintf "ff%d" i)
        ~cell:dff
        ~inputs:[ ("D", d); ("CK", clk) ]
        ~outputs:[ ("Q", q) ]
    in
    movable := id :: !movable;
    avail := q :: !avail
  done;
  Netlist.mark_primary_output nl (pick !avail);
  (nl, Array.of_list !movable)

(* Independent STA oracle: brute force over every path of a small DAG
   netlist, sharing nothing with Timing but the arc tables.  Loads and
   slews come from direct recursion; setup arrival is the max over
   launch-to-net paths of the arc delays summed from the launch end,
   required the min over net-to-endpoint paths of the endpoint
   requirement less the delays taken from the capture end, and hold
   arrival the min over register-launched paths of the summed min
   delays.  The summation orders are the analysis's, so values must
   agree bit for bit. *)
let check_against_paths msg cfg nl timing =
  let open Timing in
  let n_nets = Netlist.net_count nl in
  let is_po nid = List.mem nid (Netlist.primary_outputs nl) in
  let load nid =
    let net = Netlist.net nl nid in
    let caps =
      List.fold_left
        (fun acc (r : Netlist.pin_ref) ->
          acc +. (Netlist.instance nl r.inst).cell.Cell.pin_array.(r.pin).Pin.capacitance)
        0.0 net.Netlist.sinks
    in
    let n = List.length net.sinks in
    let wire =
      if n = 0 then 0.0 else cfg.wire_cap_base +. (cfg.wire_cap_per_sink *. float_of_int n)
    in
    caps +. wire +. if is_po nid then cfg.output_load else 0.0
  in
  (* the arcs driving a net: (arc, input net or -1, sequential driver) *)
  let driver_arcs nid =
    match (Netlist.net nl nid).Netlist.driver with
    | None -> []
    | Some { inst; pin } ->
      let i = Netlist.instance nl inst in
      let cell = i.Netlist.cell in
      Array.to_list
        (Array.mapi
           (fun ai arc ->
             let rel = cell.Cell.pin_related.(pin).(ai) in
             (arc, (if rel < 0 then -1 else i.conns.(rel)), Cell.is_sequential cell))
           cell.Cell.pin_arcs.(pin))
  in
  let rec slew nid =
    match driver_arcs nid with
    | [] -> cfg.input_slew
    | arcs ->
      List.fold_left
        (fun acc (arc, innet, seq) ->
          let t = Arc.transition arc ~slew:(in_slew innet seq) ~load:(load nid) in
          if t > acc then t else acc)
        0.0 arcs
  and in_slew innet seq =
    if seq then cfg.clock_slew else if innet < 0 then cfg.input_slew else slew innet
  in
  (* every launch-to-net path, as its arc delays in launch order *)
  let rec paths_to nid =
    match driver_arcs nid with
    | [] -> [ [] ]
    | arcs ->
      List.concat_map
        (fun (arc, innet, seq) ->
          let d = Arc.delay arc ~slew:(in_slew innet seq) ~load:(load nid) in
          if seq || innet < 0 then [ [ d ] ] else List.map (fun p -> p @ [ d ]) (paths_to innet))
        arcs
  in
  (* every register-launched path's summed min delay *)
  let rec hold_sums nid =
    List.concat_map
      (fun (arc, innet, seq) ->
        let d = Arc.min_delay arc ~slew:(in_slew innet seq) ~load:(load nid) in
        if seq then [ 0.0 +. d ]
        else if innet < 0 then []
        else List.map (fun v -> v +. d) (hold_sums innet))
      (driver_arcs nid)
  in
  let seeds nid =
    (if is_po nid then [ cfg.clock_period -. cfg.guard_band ] else [])
    @ Netlist.fold_instances nl ~init:[] ~f:(fun acc i ->
          let cell = i.Netlist.cell in
          if Cell.is_sequential cell && Netlist.pin_net i "D" = nid then
            (cfg.clock_period -. cfg.guard_band -. cell.Cell.setup_time) :: acc
          else acc)
  in
  (* every net-to-endpoint path's requirement, delays taken from the
     capture end *)
  let rec required_values nid =
    seeds nid
    @ List.concat_map
        (fun (r : Netlist.pin_ref) ->
          let i = Netlist.instance nl r.inst in
          let cell = i.Netlist.cell in
          if Cell.is_sequential cell then []
          else
            List.concat
              (List.init (Array.length cell.Cell.pin_arcs) (fun p ->
                   let out = i.conns.(p) in
                   if out < 0 || not (Pin.is_output cell.pin_array.(p)) then []
                   else
                     List.concat
                       (List.mapi
                          (fun ai rel ->
                            if rel <> r.pin then []
                            else
                              let d =
                                Arc.delay cell.pin_arcs.(p).(ai) ~slew:(slew nid) ~load:(load out)
                              in
                              List.map (fun v -> v -. d) (required_values out))
                          (Array.to_list cell.pin_related.(p))))))
        (Netlist.net nl nid).Netlist.sinks
  in
  let check what got want nid =
    if bits got <> bits want then Alcotest.failf "%s: net %d %s: %h <> %h" msg nid what got want
  in
  for nid = 0 to n_nets - 1 do
    check "load" (net_load timing nid) (load nid) nid;
    check "slew" (net_slew timing nid) (slew nid) nid;
    check "arrival" (net_arrival timing nid)
      (List.fold_left
         (fun acc p -> Float.max acc (List.fold_left ( +. ) 0.0 p))
         neg_infinity (paths_to nid))
      nid;
    check "hold arrival" (net_min_arrival timing nid)
      (List.fold_left Float.min infinity (hold_sums nid))
      nid;
    check "required" (net_required timing nid)
      (List.fold_left Float.min infinity (required_values nid))
      nid
  done

let test_sta_matches_paths =
  Helpers.qtest ~count:50 "run = brute-force path enumeration"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let nl, _ = random_dag (Rng.create seed) in
      check_against_paths (Printf.sprintf "seed %d" seed) config nl (Timing.run config nl);
      true)

let test_retime_random_sequences =
  Helpers.qtest ~count:30 "retime = fresh run under random move sequences"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let nl, movable = random_dag rng in
      let t = ref (Timing.run config nl) in
      let steps = 1 + Rng.int rng 4 in
      for _ = 1 to steps do
        let n_moves = 1 + Rng.int rng 3 in
        let changed = ref [] in
        for _ = 1 to n_moves do
          let id = movable.(Rng.int rng (Array.length movable)) in
          match Netlist.instance_opt nl id with
          | None -> ()
          | Some inst -> (
            match ladder_of inst.Netlist.cell with
            | [] -> ()
            | ladder ->
              let cell = List.nth ladder (Rng.int rng (List.length ladder)) in
              Netlist.set_cell nl id cell;
              changed := id :: !changed)
        done;
        t := Timing.retime !t ~changed:!changed;
        check_same_analysis (Printf.sprintf "seed %d" seed) nl !t (Timing.run config nl);
        (* the retimed requireds read cached forward delays: hold them
           to fresh Arc.delay lookups along every path too *)
        check_against_paths (Printf.sprintf "seed %d retimed" seed) config nl !t
      done;
      true)

(* Retime must touch fewer nodes than a full run on local moves — the
   point of the whole exercise — measured with the Obs eval counter. *)
let test_retime_fewer_evals () =
  Vartune_obs.Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Vartune_obs.Obs.set_enabled false)
    (fun () ->
      let nl = inverter_chain 16 in
      let t = Timing.run config nl in
      let target = ref None in
      Netlist.iter_instances nl ~f:(fun inst ->
          if inst.Netlist.inst_name = "inv14" then target := Some inst.inst_id);
      let inst_id = Option.get !target in
      Netlist.set_cell nl inst_id (Library.find lib "INV_4");
      let before = Vartune_obs.Obs.counter_value "sta.node_evals" in
      let t = Timing.retime t ~changed:[ inst_id ] in
      let retime_evals = Vartune_obs.Obs.counter_value "sta.node_evals" - before in
      check_same_analysis "late-chain resize" nl t (Timing.run config nl);
      (* the cone of a move near the chain's end is a handful of nodes;
         a full pass is 17 (16 inverters + the register) *)
      Alcotest.(check bool)
        (Printf.sprintf "cone is local (%d evals)" retime_evals)
        true
        (retime_evals > 0 && retime_evals <= 6))

let () =
  Alcotest.run "sta"
    [
      ( "timing",
        [
          Alcotest.test_case "arrival matches manual" `Quick test_arrival_matches_manual;
          Alcotest.test_case "worst slack / tns" `Quick test_worst_slack_and_tns;
          Alcotest.test_case "required consistency" `Quick test_net_required_consistency;
          Alcotest.test_case "fresh net defaults" `Quick test_out_of_range_net_defaults;
          Alcotest.test_case "fanout raises load" `Quick test_fanout_raises_load;
        ] );
      ( "path",
        [
          Alcotest.test_case "backtrace" `Quick test_path_backtrace;
          Alcotest.test_case "launch from register" `Quick test_launch_from_register;
          Alcotest.test_case "depth histogram" `Quick test_depth_histogram;
        ] );
      ( "hold",
        [
          Alcotest.test_case "pi fanin unconstrained" `Quick test_hold_unconstrained_from_pi;
          Alcotest.test_case "register launched" `Quick test_hold_register_launched;
          Alcotest.test_case "min arrival monotone" `Quick test_hold_min_arrival_grows_with_depth;
        ] );
      ( "power",
        [
          Alcotest.test_case "positive and composed" `Quick test_power_positive_and_composed;
          Alcotest.test_case "scales with frequency" `Quick test_power_scales_with_frequency;
          Alcotest.test_case "scales with activity" `Quick test_power_scales_with_activity;
        ] );
      ( "report",
        [ Alcotest.test_case "timing report" `Quick test_timing_report ] );
      ( "retime",
        [
          Alcotest.test_case "chain resize" `Quick test_retime_chain_resize;
          Alcotest.test_case "empty change set" `Quick test_retime_empty_and_counters;
          Alcotest.test_case "structural fallback" `Quick test_retime_structural_fallback;
          Alcotest.test_case "fewer evals on local move" `Quick test_retime_fewer_evals;
          test_retime_random_sequences;
          test_sta_matches_paths;
        ] );
    ]
