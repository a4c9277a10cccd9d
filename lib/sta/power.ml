module Netlist = Vartune_netlist.Netlist
module Cell = Vartune_liberty.Cell
module Arc = Vartune_liberty.Arc

type report = {
  switching_mw : float;
  internal_mw : float;
  leakage_mw : float;
  total_mw : float;
  clock_period : float;
  activity : float;
}

let estimate ?(activity = 0.15) ?(supply = 1.1) timing nl =
  let period = (Timing.config timing).Timing.clock_period in
  let frequency_ghz = 1.0 /. period in
  let clock = Netlist.clock nl in
  (* switching: alpha * C * V^2 * f.  C in pF, V in volts, f in GHz gives
     mW directly. *)
  let switching = ref 0.0 in
  Netlist.iter_nets nl ~f:(fun net ->
      let nid = net.Netlist.net_id in
      let alpha = if Some nid = clock then 1.0 else activity in
      if net.Netlist.sinks <> [] then
        switching :=
          !switching +. (alpha *. Timing.net_load timing nid *. supply *. supply *. frequency_ghz));
  (* internal: alpha * E(slew, load) * f.  E in fJ and f in GHz gives uW;
     convert to mW. *)
  let internal = ref 0.0 in
  let leakage = ref 0.0 in
  Netlist.iter_instances nl ~f:(fun inst ->
      leakage := !leakage +. (inst.Netlist.cell.Cell.leakage *. 1e-6);
      Netlist.iter_outputs inst ~f:(fun p out_net ->
          let load = Timing.net_load timing out_net in
          let arcs = inst.Netlist.cell.pin_arcs.(p) in
          (* energy is charged to the triggering arc; average over the
             arcs so multi-input cells are not over-counted *)
          let share = 1.0 /. float_of_int (max 1 (Array.length arcs)) in
          Array.iteri
            (fun ai (arc : Arc.t) ->
              let slew =
                match inst.cell.pin_related.(p).(ai) with
                | rel when rel >= 0 && inst.conns.(rel) >= 0 -> Timing.net_slew timing inst.conns.(rel)
                | _ -> (Timing.config timing).Timing.input_slew
              in
              internal :=
                !internal
                +. (activity *. share *. Arc.energy arc ~slew ~load *. frequency_ghz *. 1e-3))
            arcs));
  let switching_mw = !switching and internal_mw = !internal and leakage_mw = !leakage in
  {
    switching_mw;
    internal_mw;
    leakage_mw;
    total_mw = switching_mw +. internal_mw +. leakage_mw;
    clock_period = period;
    activity;
  }

let pp ppf r =
  Format.fprintf ppf
    "power @ %.2f ns clock, activity %.2f: switching %.3f mW + internal %.3f mW + leakage %.3f mW = %.3f mW"
    r.clock_period r.activity r.switching_mw r.internal_mw r.leakage_mw r.total_mw
