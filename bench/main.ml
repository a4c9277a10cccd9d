(* Benchmark harness.

   Part 1 regenerates every table and figure of the paper's evaluation
   (DESIGN.md maps each exhibit to its modules).  Part 2 runs Bechamel
   micro-benchmarks over the hot kernels, including the naive-vs-
   optimised largest-rectangle ablation.

   Part 3 times the domain-parallel pipeline stages (statistical library
   build, tuning-parameter sweep, path Monte Carlo) serially and at
   jobs = {2, 4}, records the chunk size each stage dispatched with,
   and writes the measurements to BENCH_parallel.json so the perf
   trajectory is tracked across PRs.  With VARTUNE_BENCH_GATE set the
   harness exits non-zero if any gated stage is slower than 0.9x serial
   at 2 jobs — skipped (with a warning) on single-core machines, where
   two domains genuinely time-share one core.

   Environment:
     VARTUNE_SAMPLES        Monte-Carlo sample libraries (default 50, paper's N)
     VARTUNE_SEED           random seed (default 42)
     VARTUNE_JOBS           single pool size to measure instead of {2, 4}
     VARTUNE_BENCH_GATE     set to fail the run on parallel regressions
     VARTUNE_TRACE          write a Chrome trace-event JSON of the run here
     VARTUNE_METRICS_OUT    write the telemetry metrics JSON here
     VARTUNE_BENCH_PARTS    comma list of the parts to run (default: all):
                            micro, parallel, sta, store, serve, kernels,
                            overload, figures; an unknown name exits 64
   A non-integer value of an integer knob also exits 64: VARTUNE_SAMPLES,
   VARTUNE_SEED and the VARTUNE_SERVE_ and VARTUNE_OVERLOAD_ families.

   Part 4 measures the persistent artifact store: the same experiment
   workload is run cold (empty store) and warm (populated store), the
   results are asserted identical, and the speedup is recorded in
   BENCH_store.json.

   Part 5 runs the same min-period search twice on the microcontroller
   design — full re-analysis per sizing move vs incremental cone
   retiming — asserts the periods are bit-identical, and writes the
   wall-clock and node-evaluation comparison to BENCH_sta.json.

   Part 6 starts an in-process serve daemon on a temp socket, drives
   the loadgen default mix against it (deliberately overlapping
   identical requests), and writes throughput, latency quantiles and
   the single-flight dedup hit rate to BENCH_serve.json.

   Part 8 drives a seeded overload burst (4x the admission queue's
   capacity, service times stretched by a pinned delay fault) through
   the client's retry/backoff loop and writes per-class shed/retry
   accounting to BENCH_overload.json, asserting every request gets
   exactly one typed reply and admitted interactive p99 stays bounded.

   Part 7 times the flattened numeric kernels: the statistical-library
   Welford merge over pre-generated sample libraries is run through
   both the live flat path and the frozen boxed reference
   (Boxed_ref), asserted bit-identical, and the speedup plus
   allocation words/sample recorded together with bilinear LUT-lookup
   throughput in BENCH_kernels.json. *)

module Experiment = Vartune_flow.Experiment
module Figures = Vartune_flow.Figures
module Report = Vartune_flow.Report
module Characterize = Vartune_charlib.Characterize
module Statistical = Vartune_statlib.Statistical
module Sampler = Vartune_charlib.Sampler
module Catalog = Vartune_stdcell.Catalog
module Mismatch = Vartune_process.Mismatch
module Library = Vartune_liberty.Library
module Cell = Vartune_liberty.Cell
module Arc = Vartune_liberty.Arc
module Lut = Vartune_liberty.Lut
module Rng = Vartune_util.Rng
module Pool = Vartune_util.Pool
module Path_mc = Vartune_monte.Path_mc
module Tuning_method = Vartune_tuning.Tuning_method
module Cluster = Vartune_tuning.Cluster
module Threshold = Vartune_tuning.Threshold
module Binary_lut = Vartune_tuning.Binary_lut
module Rectangle = Vartune_tuning.Rectangle
module Timing = Vartune_sta.Timing
module Path = Vartune_sta.Path
module Convolve = Vartune_stats.Convolve
module Mapper = Vartune_synth.Mapper
module Constraints = Vartune_synth.Constraints
module Synthesis = Vartune_synth.Synthesis
module Store = Vartune_store.Store
module Obs = Vartune_obs.Obs
module Serve = Vartune_serve.Serve
module Client = Vartune_serve.Client
module Loadgen = Vartune_serve.Loadgen
module Fault = Vartune_fault.Fault

let src = Logs.Src.create "vartune.bench" ~doc:"benchmark harness"

module Log = (val Logs.src_log src : Logs.LOG)

(* An integer knob; a value that is not an integer is a usage error
   naming the variable and the token, like VARTUNE_BENCH_PARTS below. *)
let env_int name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some v -> (
    match int_of_string_opt v with
    | Some n -> n
    | None ->
      Printf.eprintf "%s=%S: not an integer\n" name v;
      exit 64)

let all_parts =
  [ "micro"; "parallel"; "sta"; "store"; "serve"; "kernels"; "overload"; "figures" ]

(* VARTUNE_BENCH_PARTS, validated before any work starts: unset or
   blank selects every part, an unknown name is a usage error. *)
let selected_parts () =
  match Sys.getenv_opt "VARTUNE_BENCH_PARTS" with
  | None -> all_parts
  | Some v when String.trim v = "" -> all_parts
  | Some v ->
    let parts =
      List.filter (( <> ) "") (List.map String.trim (String.split_on_char ',' v))
    in
    List.iter
      (fun part ->
        if not (List.mem part all_parts) then begin
          Printf.eprintf "VARTUNE_BENCH_PARTS=%S: unknown part %S (known: %s)\n" v part
            (String.concat ", " all_parts);
          exit 64
        end)
      parts;
    parts

(* ------------------------------------------------------------------ *)
(* Part 2: micro-benchmarks                                            *)
(* ------------------------------------------------------------------ *)

let random_mask rng rows cols density =
  Binary_lut.of_bool_rows
    (Array.init rows (fun _ -> Array.init cols (fun _ -> Rng.uniform rng < density)))

(* Runs before the experiment phase so the measurements see a small,
   clean heap; builds its own nominal library and mapped design. *)
let micro_benchmarks () =
  let open Bechamel in
  Report.heading "Micro-benchmarks (Bechamel)";
  let library = Characterize.nominal Characterize.default_config in
  let inv = Library.find library "INV_4" in
  let arc = List.hd (Cell.arcs inv) in
  let rng = Rng.create 2024 in
  let mask8 = random_mask rng 8 8 0.7 in
  let mask24 = random_mask rng 24 24 0.7 in
  let specs = List.filter_map Catalog.find [ "INV"; "ND2" ] in
  let cons = Constraints.make ~clock_period:16.0 () in
  let netlist = Mapper.map cons library (Vartune_rtl.Microcontroller.generate ()) in
  let tconfig = Constraints.timing_config cons in
  let timing = Timing.run tconfig netlist in
  let paths = Path.worst_per_endpoint timing netlist in
  let a_path = List.nth paths (List.length paths / 2) in
  let tests =
    [
      Test.make ~name:"lut_bilinear_lookup"
        (Staged.stage (fun () -> Lut.lookup arc.Arc.rise_delay ~slew:0.21 ~load:0.0123));
      Test.make ~name:"rectangle_naive_8x8"
        (Staged.stage (fun () -> Rectangle.naive_largest mask8));
      Test.make ~name:"rectangle_opt_8x8" (Staged.stage (fun () -> Rectangle.largest mask8));
      Test.make ~name:"rectangle_naive_24x24"
        (Staged.stage (fun () -> Rectangle.naive_largest mask24));
      Test.make ~name:"rectangle_opt_24x24"
        (Staged.stage (fun () -> Rectangle.largest mask24));
      Test.make ~name:"characterize_2_families"
        (Staged.stage (fun () ->
             Characterize.library Characterize.default_config ~name:"bench" specs));
      Test.make ~name:"statistical_merge_n10"
        (Staged.stage (fun () ->
             Statistical.of_stream ~n:10 (fun index ->
                 Sampler.sample_library Characterize.default_config
                   ~mismatch:Mismatch.default ~seed:1 ~index ~specs ())));
      Test.make ~name:"sta_full_design"
        (Staged.stage (fun () -> Timing.run tconfig netlist));
      Test.make ~name:"path_convolution"
        (Staged.stage (fun () -> Convolve.of_path a_path));
    ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:3000 ~stabilize:true ~quota:(Time.second 1.0) ~kde:None () in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg [ instance ] test in
      let results = Analyze.all ols instance raw in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) ->
            let time, unit_label =
              if est > 1e9 then (est /. 1e9, "s")
              else if est > 1e6 then (est /. 1e6, "ms")
              else if est > 1e3 then (est /. 1e3, "us")
              else (est, "ns")
            in
            Printf.printf "  %-28s %10.2f %s/run\n%!" name time unit_label
          | Some [] | None -> Printf.printf "  %-28s (no estimate)\n%!" name)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* Part 3: parallel scaling                                            *)
(* ------------------------------------------------------------------ *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Serial vs pool wall-clock per pipeline stage at each job count.  Each
   measurement runs the same deterministic workload (same seeds, fresh
   caches), so the only variables are the pool size and the chunk
   granularity it implies; results are asserted bit-identical to the
   serial reference before being reported. *)
let parallel_benchmarks (setup : Experiment.setup) ~samples ~seed =
  Report.heading "Parallel scaling (serial vs worker pool)";
  let cores = Domain.recommended_domain_count () in
  let jobs_list =
    match Sys.getenv_opt "VARTUNE_JOBS" with
    | Some v -> (try [ max 2 (int_of_string (String.trim v)) ] with _ -> [ 2; 4 ])
    | None -> [ 2; 4 ]
  in
  let serial = Pool.create ~jobs:1 () in
  let pools = List.map (fun jobs -> (jobs, Pool.create ~jobs ())) jobs_list in
  Log.app (fun m ->
      m "pool sizes: {%s} domains (serial reference = 1 job; %d core%s)"
        (String.concat ", " (List.map string_of_int jobs_list))
        cores
        (if cores = 1 then "" else "s"));
  let stages = ref [] in
  (* Sub-microsecond timings are clock noise: a near-zero serial
     measurement would turn the ratio into garbage (or a division by
     zero), so such pairs report a neutral 1.0x. *)
  let min_meaningful_s = 1e-6 in
  let stage name ~items ~check run =
    let a, t_serial = time (fun () -> run serial) in
    let runs =
      List.map
        (fun (jobs, pool) ->
          let b, t_par = time (fun () -> run pool) in
          if not (check a b) then
            failwith
              (Printf.sprintf "parallel stage %s diverged from serial output at %d jobs" name
                 jobs);
          let speedup =
            if t_serial > min_meaningful_s && t_par > min_meaningful_s then t_serial /. t_par
            else begin
              Log.warn (fun m ->
                  m "stage %s: timings too small to ratio (serial %.3g s, parallel %.3g s)"
                    name t_serial t_par);
              1.0
            end
          in
          let chunk = Pool.chunk_for pool ~items in
          Printf.printf
            "  %-20s serial %7.2f s   %d jobs %7.2f s   chunk %4d   speedup %.2fx\n%!" name
            t_serial jobs t_par chunk speedup;
          (jobs, chunk, t_par, speedup))
        pools
    in
    stages := (name, t_serial, runs) :: !stages
  in
  let statlib_equal a b =
    List.for_all2
      (fun (x : Cell.t) (y : Cell.t) ->
        List.for_all2
          (fun (p : Arc.t) (q : Arc.t) ->
            Lut.equal ~eps:0.0 p.Arc.rise_delay q.Arc.rise_delay
            && Lut.equal ~eps:0.0
                 (Option.get p.Arc.rise_delay_sigma)
                 (Option.get q.Arc.rise_delay_sigma))
          (Cell.arcs x) (Cell.arcs y))
      (Library.cells a) (Library.cells b)
  in
  (* Items per stage = what each stage actually hands the pool, so the
     reported chunk matches the dispatch granularity: Welford merge
     blocks of 4 samples, one sweep point per parameter, one Monte
     Carlo sample per index. *)
  stage "statlib_build" ~items:((samples + 3) / 4) ~check:statlib_equal (fun pool ->
      Statistical.build ~pool Characterize.default_config ~mismatch:Mismatch.default ~seed
        ~n:samples ());
  let tuning =
    { Tuning_method.population = Cluster.Per_cell; criterion = Threshold.Sigma_ceiling 0.02 }
  in
  let parameters = [ 0.005; 0.01; 0.02; 0.03; 0.05; 0.08 ] in
  let period = setup.Experiment.min_period *. 1.5 in
  stage "experiment_sweep" ~items:(List.length parameters)
    ~check:(fun a b ->
      List.for_all2
        (fun (x : Experiment.sweep_point) (y : Experiment.sweep_point) ->
          x.Experiment.reduction = y.Experiment.reduction
          && x.Experiment.area_delta = y.Experiment.area_delta)
        a b)
    (fun pool ->
      Experiment.sweep ~pool (Experiment.fresh_memo setup) ~period ~tuning ~parameters);
  let base = Experiment.baseline setup ~period:setup.Experiment.min_period in
  let mc_path =
    let paths = base.Experiment.paths in
    List.nth paths (List.length paths / 2)
  in
  let mc_config = { Path_mc.default_config with n = 20_000 } in
  stage "path_mc" ~items:mc_config.Path_mc.n
    ~check:(fun (a : Path_mc.result) (b : Path_mc.result) ->
      a.Path_mc.delays = b.Path_mc.delays)
    (fun pool -> Path_mc.simulate ~pool mc_config ~seed:7 mc_path);
  Pool.shutdown serial;
  List.iter (fun (_, pool) -> Pool.shutdown pool) pools;
  let rows = List.rev !stages in
  let oc = open_out "BENCH_parallel.json" in
  (* Run metadata rides along so trajectory comparisons across PRs know
     what produced each measurement. *)
  Printf.fprintf oc
    "{\n\
    \  \"jobs\": [%s],\n\
    \  \"cores\": %d,\n\
    \  \"samples\": %d,\n\
    \  \"seed\": %d,\n\
    \  \"ocaml_version\": \"%s\",\n\
    \  \"word_size\": %d,\n\
    \  \"stages\": [\n"
    (String.concat ", " (List.map string_of_int jobs_list))
    cores samples seed Sys.ocaml_version Sys.word_size;
  List.iteri
    (fun i (name, t_serial, runs) ->
      Printf.fprintf oc "    {\"name\": \"%s\", \"serial_s\": %.6f, \"runs\": [" name t_serial;
      List.iteri
        (fun j (jobs, chunk, t_par, speedup) ->
          Printf.fprintf oc
            "%s{\"jobs\": %d, \"chunk\": %d, \"parallel_s\": %.6f, \"speedup\": %.3f}"
            (if j = 0 then "" else ", ")
            jobs chunk t_par speedup)
        runs;
      Printf.fprintf oc "]}%s\n" (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Log.app (fun m -> m "wrote BENCH_parallel.json");
  (* CI regression gate: at 2 jobs every gated stage must reach at least
     0.9x serial throughput — i.e. chunked dispatch may cost at most 10%
     even if the machine can't actually parallelise.  On a single
     hardware core two domains time-share the CPU and the ratio
     measures the scheduler, not the pool, so the gate only arms when
     cores >= 2 (it records the skip loudly instead). *)
  if Sys.getenv_opt "VARTUNE_BENCH_GATE" <> None then
    if cores < 2 then
      Log.warn (fun m ->
          m "bench gate skipped: %d hardware core(s); speedup at 2 jobs is not meaningful"
            cores)
    else begin
      let floor = 0.9 in
      let gated = [ "statlib_build"; "experiment_sweep"; "path_mc" ] in
      let failures =
        List.concat_map
          (fun (name, _, runs) ->
            if not (List.mem name gated) then []
            else
              List.filter_map
                (fun (jobs, _, _, speedup) ->
                  if jobs = 2 && speedup < floor then Some (name, speedup) else None)
                runs)
          rows
      in
      match failures with
      | [] -> Log.app (fun m -> m "bench gate passed: all gated stages >= %.1fx at 2 jobs" floor)
      | _ ->
        List.iter
          (fun (name, speedup) ->
            Log.err (fun m ->
                m "bench gate: stage %s speedup %.2fx at 2 jobs is below the %.1fx floor" name
                  speedup floor))
          failures;
        exit 1
    end

(* ------------------------------------------------------------------ *)
(* Part 4: persistent store, cold vs warm                               *)
(* ------------------------------------------------------------------ *)

(* The experiment workload the store accelerates: build the statistical
   library, measure the minimum period, synthesise a baseline and a
   three-point tuning sweep.  Returns a pure-scalar fingerprint so cold
   and warm runs can be compared exactly. *)
let store_workload ~samples ~seed ~store () =
  let setup =
    Experiment.prepare_request ~store
      (Vartune_flow.Request.Min_period { seed; samples })
  in
  let period = setup.Experiment.min_period *. 1.5 in
  let tuning =
    { Tuning_method.population = Cluster.Per_cell; criterion = Threshold.Sigma_ceiling 0.02 }
  in
  let base = Experiment.baseline setup ~period in
  let points = Experiment.sweep setup ~period ~tuning ~parameters:[ 0.01; 0.02; 0.05 ] in
  ( setup.Experiment.min_period,
    base.Experiment.result.Synthesis.worst_slack,
    base.Experiment.result.Synthesis.area,
    List.map
      (fun (p : Experiment.sweep_point) -> (p.Experiment.reduction, p.Experiment.area_delta))
      points )

let store_benchmarks ~samples ~seed =
  Report.heading "Persistent store (cold vs warm)";
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "vartune_bench_store_%d" (Unix.getpid ()))
  in
  let store = Store.open_dir dir in
  Store.wipe store;
  let cold_result, cold_s = time (store_workload ~samples ~seed ~store) in
  let warm_result, warm_s = time (store_workload ~samples ~seed ~store) in
  if cold_result <> warm_result then
    failwith "store benchmark: warm run diverged from cold run";
  let stats = Store.stats store in
  let speedup = if warm_s > 0.0 then cold_s /. warm_s else 0.0 in
  Printf.printf "  %-24s cold %7.2f s   warm %7.2f s   speedup %.2fx\n%!" "experiment" cold_s
    warm_s speedup;
  Printf.printf "  store: %d hits, %d misses, %d writes, %d entries, %d bytes\n%!"
    stats.Store.hits stats.Store.misses stats.Store.writes (Store.entry_count store)
    (Store.total_bytes store);
  if speedup < 3.0 then
    Log.warn (fun m -> m "warm-run speedup %.2fx below the 3x target" speedup);
  let oc = open_out "BENCH_store.json" in
  Printf.fprintf oc
    "{\n\
    \  \"samples\": %d,\n\
    \  \"seed\": %d,\n\
    \  \"cold_s\": %.6f,\n\
    \  \"warm_s\": %.6f,\n\
    \  \"speedup\": %.3f,\n\
    \  \"hits\": %d,\n\
    \  \"misses\": %d,\n\
    \  \"writes\": %d,\n\
    \  \"entries\": %d,\n\
    \  \"bytes\": %d,\n\
    \  \"ocaml_version\": \"%s\"\n\
     }\n"
    samples seed cold_s warm_s speedup stats.Store.hits stats.Store.misses stats.Store.writes
    (Store.entry_count store) (Store.total_bytes store) Sys.ocaml_version;
  close_out oc;
  Log.app (fun m -> m "wrote BENCH_store.json");
  Store.wipe store

(* ------------------------------------------------------------------ *)
(* Part 5: incremental STA                                             *)
(* ------------------------------------------------------------------ *)

(* The same min-period bisection on the microcontroller design, run
   twice: full timing re-analysis after every sizing move, then
   incremental cone retiming.  Incremental mode is a cost optimisation
   only, so the two searches must land on the bit-identical period; the
   Obs node-evaluation counters quantify how much propagation work the
   levelized graph's cone retiming avoids. *)
let sta_benchmarks () =
  Report.heading "Incremental STA (full re-analysis vs cone retiming)";
  let was_enabled = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was_enabled) @@ fun () ->
  let library = Characterize.nominal Characterize.default_config in
  let ir = Vartune_rtl.Microcontroller.generate () in
  let measure ~incremental =
    let evals0 = Obs.counter_value "sta.node_evals" in
    let runs0 = Obs.counter_value "sta.runs" in
    let retimes0 = Obs.counter_value "sta.retimes" in
    let period, seconds = time (fun () -> Synthesis.min_period ~incremental library ir) in
    ( period,
      seconds,
      Obs.counter_value "sta.node_evals" - evals0,
      Obs.counter_value "sta.runs" - runs0,
      Obs.counter_value "sta.retimes" - retimes0 )
  in
  let p_full, full_s, full_evals, full_runs, _ = measure ~incremental:false in
  let p_inc, inc_s, inc_evals, inc_runs, inc_retimes = measure ~incremental:true in
  if Int64.bits_of_float p_full <> Int64.bits_of_float p_inc then
    failwith
      (Printf.sprintf "incremental min-period search diverged: full %.9f vs incremental %.9f"
         p_full p_inc);
  let speedup = if inc_s > 0.0 then full_s /. inc_s else 0.0 in
  let eval_ratio = if full_evals > 0 then float_of_int inc_evals /. float_of_int full_evals else 0.0 in
  Printf.printf "  %-24s %7.2f s   %9d node evals   %4d full runs\n%!" "full re-analysis"
    full_s full_evals full_runs;
  Printf.printf "  %-24s %7.2f s   %9d node evals   %4d full runs, %d retimes\n%!"
    "incremental retime" inc_s inc_evals inc_runs inc_retimes;
  Printf.printf "  min period %.4f ns (bit-identical)   speedup %.2fx   eval ratio %.3f\n%!"
    p_inc speedup eval_ratio;
  let oc = open_out "BENCH_sta.json" in
  (* cores disambiguates cross-host comparisons (BENCH_parallel.json
     already records it); jobs/chunk document that this benchmark
     dispatches serially — the search itself is single-domain. *)
  Printf.fprintf oc
    "{\n\
    \  \"design\": \"microcontroller\",\n\
    \  \"cores\": %d,\n\
    \  \"jobs\": 1,\n\
    \  \"chunk\": 1,\n\
    \  \"min_period_ns\": %.9f,\n\
    \  \"full\": {\"seconds\": %.6f, \"node_evals\": %d, \"sta_runs\": %d},\n\
    \  \"incremental\": {\"seconds\": %.6f, \"node_evals\": %d, \"sta_runs\": %d, \"retimes\": \
     %d},\n\
    \  \"speedup\": %.3f,\n\
    \  \"eval_ratio\": %.4f,\n\
    \  \"ocaml_version\": \"%s\"\n\
     }\n"
    (Domain.recommended_domain_count ())
    p_inc full_s full_evals full_runs inc_s inc_evals inc_runs inc_retimes speedup eval_ratio
    Sys.ocaml_version;
  close_out oc;
  Log.app (fun m -> m "wrote BENCH_sta.json")

(* ------------------------------------------------------------------ *)
(* Part 6: serving                                                     *)
(* ------------------------------------------------------------------ *)

(* An in-process daemon on a temp socket driven by the loadgen default
   mix.  The loadgen hands [concurrency] consecutive indices the same
   request template, so parallel workers overlap on identical requests
   and the measured dedup hit rate exercises the single-flight path,
   not just the warm store. *)
let serve_benchmarks ~samples ~seed =
  Report.heading "Serving (loadgen against an in-process daemon)";
  let requests = env_int "VARTUNE_SERVE_REQUESTS" 48 in
  let concurrency = env_int "VARTUNE_SERVE_CONCURRENCY" 4 in
  let tag = Printf.sprintf "vartune_bench_serve_%d" (Unix.getpid ()) in
  let socket = Filename.concat (Filename.get_temp_dir_name ()) (tag ^ ".sock") in
  let store = Store.open_dir (Filename.concat (Filename.get_temp_dir_name ()) tag) in
  Store.wipe store;
  let h =
    Serve.start
      { Serve.socket; store = Some store; backlog = 16; workers = 4; queue_cap = 64;
        max_conns = 64 }
  in
  let r =
    Fun.protect ~finally:(fun () -> Serve.stop h) @@ fun () ->
    Loadgen.run
      { Loadgen.socket; requests; concurrency;
        mix = Loadgen.default_mix ~seed ~samples }
  in
  if r.Loadgen.failed > 0 then
    failwith (Printf.sprintf "serve benchmark: %d requests failed" r.Loadgen.failed);
  let hit_rate = Loadgen.dedup_hit_rate r in
  if hit_rate <= 0.0 then
    Log.warn (fun m -> m "no dedup hits under the overlapping mix");
  Printf.printf "  %-24s %d requests, %d connections, %d dedup hits (%.1f%%)\n%!" "loadgen"
    r.Loadgen.sent concurrency r.Loadgen.dedup_hits (100.0 *. hit_rate);
  Printf.printf "  %-24s %7.2f s   %.1f req/s\n%!" "wall / throughput" r.Loadgen.elapsed_s
    r.Loadgen.throughput_rps;
  Printf.printf "  latency ms: p50 %.2f  p90 %.2f  p99 %.2f  min %.2f  max %.2f\n%!"
    r.Loadgen.p50_ms r.Loadgen.p90_ms r.Loadgen.p99_ms r.Loadgen.min_ms r.Loadgen.max_ms;
  let oc = open_out "BENCH_serve.json" in
  Printf.fprintf oc
    "{\n\
    \  \"samples\": %d,\n\
    \  \"seed\": %d,\n\
    \  \"requests\": %d,\n\
    \  \"concurrency\": %d,\n\
    \  \"ok\": %d,\n\
    \  \"failed\": %d,\n\
    \  \"dedup_hits\": %d,\n\
    \  \"dedup_hit_rate\": %.4f,\n\
    \  \"elapsed_s\": %.6f,\n\
    \  \"throughput_rps\": %.3f,\n\
    \  \"p50_ms\": %.3f,\n\
    \  \"p90_ms\": %.3f,\n\
    \  \"p99_ms\": %.3f,\n\
    \  \"min_ms\": %.3f,\n\
    \  \"max_ms\": %.3f,\n\
    \  \"ocaml_version\": \"%s\"\n\
     }\n"
    samples seed r.Loadgen.sent concurrency r.Loadgen.ok r.Loadgen.failed r.Loadgen.dedup_hits
    hit_rate r.Loadgen.elapsed_s r.Loadgen.throughput_rps r.Loadgen.p50_ms r.Loadgen.p90_ms
    r.Loadgen.p99_ms r.Loadgen.min_ms r.Loadgen.max_ms Sys.ocaml_version;
  close_out oc;
  Log.app (fun m -> m "wrote BENCH_serve.json");
  Store.wipe store

(* ------------------------------------------------------------------ *)
(* Part 7: numeric kernels                                             *)
(* ------------------------------------------------------------------ *)

(* The statistical merge over pre-generated sample libraries — so the
   characterisation cost is out of the loop and the measurement is the
   entry-wise Welford kernel itself — run through the live flat path
   and the frozen boxed reference, plus the fused bilinear LUT lookup.
   The two merge paths must agree bit-for-bit before any number is
   reported: the speedup is only meaningful between equal outputs. *)
let kernel_benchmarks ~samples ~seed =
  Report.heading "Numeric kernels (flat vs boxed reference)";
  let pool = Pool.create ~jobs:1 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let libs =
    Array.init samples (fun index ->
        Sampler.sample_library Characterize.default_config ~mismatch:Mismatch.default ~seed
          ~index ())
  in
  let gen i = libs.(i) in
  (* Best-of-3 wall clock (the workload is deterministic, so variance is
     scheduler noise); allocation from the first rep — identical every
     rep because the work is identical. *)
  let reps = 3 in
  let measure run =
    let mw0 = Gc.minor_words () in
    let r, t0 = time run in
    let alloc = (Gc.minor_words () -. mw0) /. float_of_int samples in
    let best = ref t0 in
    for _ = 2 to reps do
      let _, t = time run in
      if t < !best then best := t
    done;
    (r, !best, alloc)
  in
  let flat_lib, flat_s, flat_alloc =
    measure (fun () -> Statistical.of_stream ~pool ~n:samples gen)
  in
  let boxed_lib, boxed_s, boxed_alloc =
    measure (fun () -> Vartune_statlib.Boxed_ref.of_stream ~pool ~n:samples gen)
  in
  let luts_identical a b =
    Lut.equal ~eps:0.0 a b
    && Lut.slews a = Lut.slews b
    && Lut.loads a = Lut.loads b
  in
  let agree =
    List.for_all2
      (fun (x : Cell.t) (y : Cell.t) ->
        List.for_all2
          (fun (p : Arc.t) (q : Arc.t) ->
            luts_identical p.Arc.rise_delay q.Arc.rise_delay
            && luts_identical p.Arc.fall_delay q.Arc.fall_delay
            && luts_identical p.Arc.rise_transition q.Arc.rise_transition
            && luts_identical p.Arc.fall_transition q.Arc.fall_transition
            && luts_identical
                 (Option.get p.Arc.rise_delay_sigma)
                 (Option.get q.Arc.rise_delay_sigma)
            && luts_identical
                 (Option.get p.Arc.fall_delay_sigma)
                 (Option.get q.Arc.fall_delay_sigma))
          (Cell.arcs x) (Cell.arcs y))
      (Library.cells flat_lib) (Library.cells boxed_lib)
  in
  if not agree then failwith "kernel benchmark: flat merge diverged from the boxed reference";
  let speedup = if flat_s > 0.0 then boxed_s /. flat_s else 0.0 in
  let throughput = if flat_s > 0.0 then float_of_int samples /. flat_s else 0.0 in
  let alloc_ratio = if boxed_alloc > 0.0 then flat_alloc /. boxed_alloc else 0.0 in
  Printf.printf "  %-24s flat %7.3f s   boxed %7.3f s   speedup %.2fx\n%!" "statlib merge"
    flat_s boxed_s speedup;
  Printf.printf "  %-24s flat %10.0f   boxed %10.0f   ratio %.3f\n%!" "alloc words/sample"
    flat_alloc boxed_alloc alloc_ratio;
  (* Bilinear lookup throughput on a production 8x8 delay surface; the
     1.3 range factor pushes ~a quarter of the points past the last
     axis breakpoint, so extrapolation stays on the measured path. *)
  let lut =
    let inv = Library.find (Characterize.nominal Characterize.default_config) "INV_4" in
    (List.hd (Cell.arcs inv)).Arc.rise_delay
  in
  let slews = Lut.slews lut and loads = Lut.loads lut in
  let smin = slews.(0) and smax = slews.(Array.length slews - 1) in
  let lmin = loads.(0) and lmax = loads.(Array.length loads - 1) in
  let iters = 2_000_000 in
  (* probe points are precomputed so the timed loop measures the lookup
     alone; 4096 of them cycle through the loop *)
  let probes = 4096 in
  let probe_s =
    Array.init probes (fun i ->
        smin +. (Float.rem (float_of_int i *. 0.618) 1.3 *. (smax -. smin)))
  in
  let probe_l =
    Array.init probes (fun i ->
        lmin +. (Float.rem (float_of_int i *. 0.382) 1.3 *. (lmax -. lmin)))
  in
  let sink = ref 0.0 in
  let _, lut_s =
    time (fun () ->
        for i = 0 to iters - 1 do
          let j = i land (probes - 1) in
          sink :=
            !sink
            +. Lut.lookup lut ~slew:(Array.unsafe_get probe_s j) ~load:(Array.unsafe_get probe_l j)
        done)
  in
  let ns_per_lookup = lut_s *. 1e9 /. float_of_int iters in
  Printf.printf "  %-24s %d lookups in %.3f s   %.1f ns/lookup (sink %.3f)\n%!" "lut bilinear"
    iters lut_s ns_per_lookup !sink;
  let oc = open_out "BENCH_kernels.json" in
  Printf.fprintf oc
    "{\n\
    \  \"samples\": %d,\n\
    \  \"seed\": %d,\n\
    \  \"jobs\": 1,\n\
    \  \"statlib\": {\n\
    \    \"flat\": {\"seconds\": %.6f, \"alloc_words_per_sample\": %.0f},\n\
    \    \"boxed\": {\"seconds\": %.6f, \"alloc_words_per_sample\": %.0f},\n\
    \    \"speedup\": %.3f,\n\
    \    \"throughput_per_sec\": %.2f,\n\
    \    \"alloc_ratio\": %.4f\n\
    \  },\n\
    \  \"lut_lookup\": {\"iters\": %d, \"seconds\": %.6f, \"ns_per_lookup\": %.2f},\n\
    \  \"ocaml_version\": \"%s\"\n\
     }\n"
    samples seed flat_s flat_alloc boxed_s boxed_alloc speedup throughput alloc_ratio iters
    lut_s ns_per_lookup Sys.ocaml_version;
  close_out oc;
  Log.app (fun m -> m "wrote BENCH_kernels.json");
  (* Unlike the parallel gate this ratio compares two code paths on the
     same core in the same process, so it is meaningful even on a
     single-hardware-core runner.  The floor sits below the locally
     demonstrated speedup to absorb runner noise while still catching a
     real regression to boxed-era throughput. *)
  if Sys.getenv_opt "VARTUNE_BENCH_GATE" <> None then
    if speedup < 1.2 then begin
      Log.err (fun m ->
          m "bench gate: flat/boxed merge speedup %.2fx is below the 1.2x floor" speedup);
      exit 1
    end
    else if alloc_ratio >= 1.0 then begin
      Log.err (fun m ->
          m "bench gate: flat path allocates %.2fx the boxed reference per sample" alloc_ratio);
      exit 1
    end
    else
      Log.app (fun m ->
          m "bench gate passed: kernel speedup %.2fx, alloc ratio %.3f" speedup alloc_ratio)

(* ------------------------------------------------------------------ *)
(* Part 8: overload                                                    *)
(* ------------------------------------------------------------------ *)

(* A seeded burst of 4x the admission queue's capacity, against a
   daemon whose service times are stretched by a pinned [delay] fault
   schedule, driven through the client's retry/backoff loop.  The
   contract being measured: every request gets exactly one final reply
   (success or typed 75), zero code-70s, batch overload is shed rather
   than absorbed, and p99 of the {e admitted} interactive requests
   stays bounded. *)
let overload_benchmarks ~seed =
  Report.heading "Overload (burst past the bounded admission queue)";
  let queue_cap = env_int "VARTUNE_OVERLOAD_QUEUE_CAP" 8 in
  let burst = env_int "VARTUNE_OVERLOAD_BURST" (4 * queue_cap) in
  (* more concurrent clients than queue slots + workers, otherwise the
     queue can never fill and nothing sheds *)
  let concurrency = env_int "VARTUNE_OVERLOAD_CONCURRENCY" (2 * queue_cap) in
  let workers = env_int "VARTUNE_OVERLOAD_WORKERS" 2 in
  let p99_bound_ms = float_of_int (env_int "VARTUNE_OVERLOAD_P99_MS" 30_000) in
  let tag = Printf.sprintf "vartune_bench_overload_%d" (Unix.getpid ()) in
  let socket = Filename.concat (Filename.get_temp_dir_name ()) (tag ^ ".sock") in
  let store = Store.open_dir (Filename.concat (Filename.get_temp_dir_name ()) tag) in
  Store.wipe store;
  (* every request's service time stretches, so the queue genuinely
     fills; the schedule is pinned for replayability *)
  (match Fault.configure "delay=1.0:7" with
  | Ok () -> ()
  | Error msg -> failwith ("overload benchmark: bad fault spec: " ^ msg));
  let h =
    Serve.start
      { Serve.socket; store = Some store; backlog = 64; workers; queue_cap;
        max_conns = 64 }
  in
  let r, server =
    Fun.protect
      ~finally:(fun () ->
        Serve.stop h;
        Fault.clear ())
      (fun () ->
        let r =
          Loadgen.run_overload
            {
              Loadgen.o_socket = socket;
              burst;
              o_concurrency = concurrency;
              o_seed = seed;
              o_samples = 2;
              retry = { Client.attempts = 2; seed };
            }
        in
        (r, Serve.stats h))
  in
  Store.wipe store;
  let line label (c : Loadgen.class_stats) =
    Printf.printf
      "  %-24s sent %d  ok %d  shed %d  deadline %d  failed %d  retries %d  p99 %.1f \
       ms\n\
       %!"
      label c.Loadgen.c_sent c.Loadgen.c_ok c.Loadgen.c_shed c.Loadgen.c_deadline_dropped
      c.Loadgen.c_failed c.Loadgen.c_retries c.Loadgen.c_p99_ms
  in
  line "interactive" r.Loadgen.interactive;
  line "batch" r.Loadgen.batch;
  Printf.printf "  %-24s sheds %d  deadline drops %d  slow-client drops %d\n%!" "daemon"
    server.Serve.sheds server.Serve.deadline_drops server.Serve.slow_client_drops;
  let i = r.Loadgen.interactive and b = r.Loadgen.batch in
  let lost = i.Loadgen.c_failed + b.Loadgen.c_failed in
  let oc = open_out "BENCH_overload.json" in
  Printf.fprintf oc
    "{\n\
    \  \"seed\": %d,\n\
    \  \"burst\": %d,\n\
    \  \"queue_cap\": %d,\n\
    \  \"workers\": %d,\n\
    \  \"concurrency\": %d,\n\
    \  \"interactive_sent\": %d,\n\
    \  \"interactive_ok\": %d,\n\
    \  \"interactive_shed\": %d,\n\
    \  \"interactive_p99_ms\": %.3f,\n\
    \  \"batch_sent\": %d,\n\
    \  \"batch_ok\": %d,\n\
    \  \"batch_shed\": %d,\n\
    \  \"batch_deadline_dropped\": %d,\n\
    \  \"batch_p99_ms\": %.3f,\n\
    \  \"retries\": %d,\n\
    \  \"replies\": %d,\n\
    \  \"lost\": %d,\n\
    \  \"code70\": %d,\n\
    \  \"server_sheds\": %d,\n\
    \  \"server_deadline_drops\": %d,\n\
    \  \"elapsed_s\": %.6f,\n\
    \  \"ocaml_version\": \"%s\"\n\
     }\n"
    seed burst queue_cap workers concurrency i.Loadgen.c_sent i.Loadgen.c_ok
    i.Loadgen.c_shed i.Loadgen.c_p99_ms b.Loadgen.c_sent b.Loadgen.c_ok b.Loadgen.c_shed
    b.Loadgen.c_deadline_dropped b.Loadgen.c_p99_ms
    (i.Loadgen.c_retries + b.Loadgen.c_retries)
    r.Loadgen.replies lost r.Loadgen.code70 server.Serve.sheds
    server.Serve.deadline_drops r.Loadgen.o_elapsed_s Sys.ocaml_version;
  close_out oc;
  Log.app (fun m -> m "wrote BENCH_overload.json");
  (* the typed-degradation contract is load-bearing: fail the bench,
     don't just report *)
  if r.Loadgen.code70 > 0 then
    failwith (Printf.sprintf "overload benchmark: %d code-70 replies" r.Loadgen.code70);
  if lost > 0 then
    failwith (Printf.sprintf "overload benchmark: %d requests got no reply" lost);
  if server.Serve.sheds + server.Serve.deadline_drops = 0 then
    failwith "overload benchmark: burst past capacity shed nothing";
  if i.Loadgen.c_ok > 0 && i.Loadgen.c_p99_ms > p99_bound_ms then
    failwith
      (Printf.sprintf
         "overload benchmark: admitted interactive p99 %.1f ms exceeds the %.0f ms bound"
         i.Loadgen.c_p99_ms p99_bound_ms)

(* ------------------------------------------------------------------ *)

(* Same telemetry outputs as the CLI's --trace / --metrics-out, driven
   by environment variables so `dune exec bench/main.exe` stays
   flag-free. *)
let setup_telemetry () =
  let trace = Sys.getenv_opt "VARTUNE_TRACE" in
  let metrics = Sys.getenv_opt "VARTUNE_METRICS_OUT" in
  if trace <> None || metrics <> None then begin
    Obs.set_enabled true;
    at_exit (fun () ->
        Option.iter
          (fun path ->
            Obs.write_trace path;
            Log.app (fun m -> m "wrote Chrome trace to %s (load in Perfetto)" path))
          trace;
        Option.iter
          (fun path ->
            Obs.write_metrics path;
            Log.app (fun m -> m "wrote metrics to %s" path))
          metrics)
  end

let () =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Info);
  let parts = selected_parts () in
  let run part f = if List.mem part parts then f () in
  setup_telemetry ();
  let samples = env_int "VARTUNE_SAMPLES" 50 in
  let seed = env_int "VARTUNE_SEED" 42 in
  let t0 = Unix.gettimeofday () in
  Log.app (fun m -> m "vartune reproduction harness — N=%d samples, seed %d" samples seed);
  run "micro" micro_benchmarks;
  (* the min-period bisection is paid only by the parts that use it *)
  let setup =
    lazy (Experiment.prepare_request (Vartune_flow.Request.Min_period { seed; samples }))
  in
  run "parallel" (fun () -> parallel_benchmarks (Lazy.force setup) ~samples ~seed);
  run "sta" sta_benchmarks;
  run "store" (fun () -> store_benchmarks ~samples ~seed);
  run "serve" (fun () -> serve_benchmarks ~samples ~seed);
  run "kernels" (fun () -> kernel_benchmarks ~samples ~seed);
  run "overload" (fun () -> overload_benchmarks ~seed);
  run "figures" (fun () -> Figures.run_all (Lazy.force setup));
  Log.app (fun m -> m "total wall time: %.1f s" (Unix.gettimeofday () -. t0))
