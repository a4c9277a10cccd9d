(* The per-layer ledger: the metrics a traced run reports, each with the
   end-to-end metric and workload it should move and the workload where
   it should read unchanged.  Values come from the spans and counters
   the library already records (folded with Obs.Profile) and from the
   benchmark's own timings around its calls. *)

module Obs = Vartune_obs.Obs
module Profile = Vartune_obs.Profile

type evidence = {
  events : Obs.event list;  (** spans of the traced pass *)
  counter : string -> int;  (** Obs counters of the traced pass *)
  wall_s : float;  (** traced pass wall time *)
  untraced_wall_s : float;  (** the same operations with telemetry off *)
  exec_ms : float list;  (** [Response.elapsed_s] of each traced request *)
  transport_ms : float list;  (** client latency minus [elapsed_s] (serve) *)
  queue_wait_ms : float * float;  (** daemon [serve.queue_wait_ms] p50, p90 *)
  dedup_hits : int;
  sheds : int;
  failed_ratio : float;
}

type row = {
  name : string;
  unit_ : string;
  better : string;  (** ["lower"] or ["higher"] *)
  layer : string;
  moves : string;  (** end-to-end metric and workload it should move *)
  still : string;  (** workload where it should not move *)
  value : evidence -> Profile.t -> float;
}

let find prof label =
  List.find_opt (fun (r : Profile.row) -> r.Profile.r_label = label) prof.Profile.rows

let self_s label _ prof =
  match find prof label with Some r -> r.Profile.r_self_us /. 1e6 | None -> 0.0

let total_s label _ prof =
  match find prof label with Some r -> r.Profile.r_total_us /. 1e6 | None -> 0.0

let minor_words_per_call label _ prof =
  match find prof label with
  | Some r when r.Profile.r_count > 0 ->
    r.Profile.r_gc.Profile.minor_words /. float_of_int r.Profile.r_count
  | _ -> 0.0

let count name ev _ = float_of_int (ev.counter name)

(* Linear interpolation between the closest ranks; 0 for no samples. *)
let quantile q xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = int_of_float pos in
    let hi = min (lo + 1) (Array.length a - 1) in
    let w = pos -. float_of_int lo in
    if w = 0.0 then a.(lo) else a.(lo) +. (w *. (a.(hi) -. a.(lo)))

(* Self time of [request.exec] restricted to the given request kinds:
   the folded profile of those requests' spans plus everything nested
   inside them on the same domain track.  [request.exec] has no child
   span around printing or parsing, so this is the liberty printer's
   (statlib/characterize) or parser's (parse) time. *)
let exec_self_s kinds ev _ =
  let is_root (e : Obs.event) =
    e.Obs.name = "request.exec"
    && match List.assoc_opt "kind" e.Obs.attrs with
       | Some k -> List.mem k kinds
       | None -> false
  in
  let roots = List.filter is_root ev.events in
  let inside (e : Obs.event) =
    List.exists
      (fun (r : Obs.event) ->
        r.Obs.dom = e.Obs.dom && e.Obs.ts_us >= r.Obs.ts_us
        && e.Obs.ts_us +. e.Obs.dur_us <= r.Obs.ts_us +. r.Obs.dur_us)
      roots
  in
  let nested = List.filter (fun e -> e.Obs.name <> "request.exec" && inside e) ev.events in
  if roots = [] then 0.0 else self_s "request.exec" ev (Profile.of_events (roots @ nested))

let domain_util i _ prof =
  let doms =
    List.sort (fun a b -> Int.compare a.Profile.dom b.Profile.dom) prof.Profile.domains
  in
  match List.nth_opt doms i with Some d -> d.Profile.util | None -> 0.0

let hit_ratio ev _ =
  let hit = ev.counter "store.hit" and miss = ev.counter "store.miss" in
  if hit + miss = 0 then 0.0 else float_of_int hit /. float_of_int (hit + miss)

(* Wall time of the executing domains (those that ran request.exec)
   that no span covers, as a share of the traced pass's wall time. *)
let unaccounted_share ev _ =
  let doms =
    List.sort_uniq Int.compare
      (List.filter_map
         (fun (e : Obs.event) -> if e.Obs.name = "request.exec" then Some e.Obs.dom else None)
         ev.events)
  in
  if doms = [] || ev.wall_s <= 0.0 then 0.0
  else
    let prof = Profile.of_events (List.filter (fun e -> List.mem e.Obs.dom doms) ev.events) in
    let covered_us =
      List.fold_left (fun acc (r : Profile.row) -> acc +. r.Profile.r_self_us) 0.0 prof.Profile.rows
    in
    let wall_us = ev.wall_s *. 1e6 *. float_of_int (List.length doms) in
    Float.max 0.0 (1.0 -. (covered_us /. wall_us))

let exp_ = "request_p50_ms on experiment_cold"
let stat_ = "requests_per_s on statlib_build"
let serve_ = "request_p50_ms, requests_per_s on serve_warm"

let rows =
  let r ?(still = "-") ?(better = "lower") layer name unit_ moves value =
    { name; unit_; better; layer; moves; still; value }
  in
  let sta ?better = r ?better ~still:"statlib_build" "sta" in
  let synth ?better = r ?better ~still:"statlib_build" "synth" in
  let stats ?better = r ?better ~still:"statlib_build" "stats/monte" in
  let lib ?better = r ?better ~still:"serve_warm" "charlib/statlib" in
  let store ?better = r ?better ~still:"statlib_build" "store" in
  let serve ?better = r ?better ~still:"experiment_cold, statlib_build" "serve/flow" in
  let sta_moves = exp_ ^ "; setup_s on serve_warm" in
  [
    sta "sta.run.self_s" "s" sta_moves (self_s "sta.run");
    sta "sta.forward.self_s" "s" sta_moves (self_s "sta.forward");
    sta "sta.retime.self_s" "s" sta_moves (self_s "sta.retime");
    sta "sta.runs" "count" sta_moves (count "sta.runs");
    sta "sta.retimes" "count" sta_moves (count "sta.retimes");
    sta "sta.node_evals" "count" sta_moves (count "sta.node_evals");
    sta "sta.required_evals" "count" sta_moves (count "sta.required_evals");
    sta "kernel.bilinear_lookups" "count" sta_moves (count "kernel.bilinear_lookups");
    sta "sta.run.minor_words_per_call" "words" sta_moves (minor_words_per_call "sta.run");
    synth "synth.min_period_s" "s" exp_ (total_s "synth.min_period");
    synth "synth.size.self_s" "s" exp_ (self_s "synth.size");
    synth "synth.map.self_s" "s" exp_ (self_s "synth.map");
    synth "synth.runs" "count" exp_ (count "synth.runs");
    synth ~better:"higher" "synth.cache.hits" "count" exp_ (count "synth.cache.hits");
    synth "synth.cache.misses" "count" exp_ (count "synth.cache.misses");
    stats "sta.design_sigma.self_s" "s" (exp_ ^ "; request_p50_ms on serve_warm")
      (self_s "sta.design_sigma");
    stats "sta.paths_convolved" "count" exp_ (count "sta.paths_convolved");
    stats "mc.simulate_s" "s" exp_ (total_s "mc.simulate");
    stats "mc.samples" "count" exp_ (count "mc.samples");
    lib "charlib.self_s" "s" (stat_ ^ ", peak_rss_mb") (self_s "charlib.library");
    lib "charlib.cells" "count" stat_ (count "charlib.cells");
    lib "statlib.chunk.self_s" "s" stat_ (self_s "statlib.chunk");
    lib "statlib.merge.self_s" "s" stat_ (self_s "statlib.merge");
    lib "statlib.lut_entries_merged" "count" stat_ (count "statlib.lut_entries_merged");
    lib "kernel.welford_update_entries" "count" stat_ (count "kernel.welford_update_entries");
    r ~still:"experiment_cold" "liberty" "liberty.print_s" "s"
      (stat_ ^ "; request_p90_ms on serve_warm")
      (exec_self_s [ "statlib"; "characterize" ]);
    r ~still:"experiment_cold" "liberty" "liberty.parse_s" "s" "request_p90_ms on serve_warm"
      (exec_self_s [ "parse" ]);
    store "store.load.self_s" "s" serve_ (self_s "store.load");
    store "store.save.self_s" "s" exp_ (self_s "store.save");
    store ~better:"higher" "store.hit" "count" serve_ (count "store.hit");
    store "store.miss" "count" exp_ (count "store.miss");
    store ~better:"higher" "store.hit_ratio" "ratio" serve_ hit_ratio;
    store "store.read_bytes" "bytes" serve_ (count "store.read_bytes");
    store "store.write_bytes" "bytes" exp_ (count "store.write_bytes");
    serve "request.exec_ms" "ms" serve_ (fun ev _ -> quantile 0.5 ev.exec_ms);
    serve "serve.transport_ms" "ms" serve_ (fun ev _ -> quantile 0.5 ev.transport_ms);
    serve "serve.queue_wait_p50_ms" "ms" serve_ (fun ev _ -> fst ev.queue_wait_ms);
    serve "serve.queue_wait_p90_ms" "ms" "request_p90_ms on serve_warm" (fun ev _ ->
        snd ev.queue_wait_ms);
    serve ~better:"higher" "serve.dedup_hits" "count" serve_ (fun ev _ ->
        float_of_int ev.dedup_hits);
    serve "serve.sheds" "count" serve_ (fun ev _ -> float_of_int ev.sheds);
    r ~better:"higher" "util" "pool.util.d0" "ratio" (exp_ ^ "; " ^ stat_) (domain_util 0);
    r ~better:"higher" "util" "pool.util.d1" "ratio" (exp_ ^ "; " ^ stat_) (domain_util 1);
    r "util" "pool.tasks_run" "count" (exp_ ^ "; " ^ stat_) (count "pool.tasks_run");
    r "trace" "trace.overhead_ratio" "ratio" "every workload (telemetry cost)" (fun ev _ ->
        if ev.untraced_wall_s > 0.0 then ev.wall_s /. ev.untraced_wall_s else 0.0);
    r "trace" "trace.unaccounted_share" "ratio" "every workload (profile blind spots)"
      unaccounted_share;
    r "bench" "failed_ratio" "ratio" "every workload" (fun ev _ -> ev.failed_ratio);
  ]

(* Counters that depend only on the operations run, never on timing:
   two traced runs at the same seed must repeat them exactly. *)
let deterministic_counters =
  [
    "sta.runs"; "sta.retimes"; "sta.node_evals"; "sta.required_evals"; "sta.paths_convolved";
    "synth.runs"; "kernel.bilinear_lookups"; "kernel.welford_update_entries";
    "kernel.welford_merge_entries"; "charlib.cells"; "statlib.lut_entries_merged";
    "store.hit"; "store.miss"; "store.read_bytes"; "store.write_bytes"; "mc.samples";
  ]

let evaluate ev =
  let prof = Profile.of_events ev.events in
  List.map (fun row -> (row, row.value ev prof)) rows
