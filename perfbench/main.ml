(* End-to-end benchmark of vartune.

     sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
     sh perfbench/run.sh --record

   Three workloads, each a closed loop (every caller waits for its
   reply), each in its own process with a pool of [jobs] domains:

   - experiment_cold: the experiment pipeline (statlib, min-period
     bisection, baseline, constraint sweep, path Monte Carlo) through
     Run_request.exec, one request at a time, each on a fresh empty
     store.  synth and sta do most of the work.
   - statlib_build: statistical-library builds at N=200 over the whole
     catalog with the store off, liberty text included.  No synth, sta
     or store: the workload where an STA change must read unchanged.
   - serve_warm: a [vartune serve] daemon in its own process over a
     store warmed during set-up, driven by two connections with a
     seeded weighted mix of request kinds.  Store reads, the response
     codec and the socket transport do most of the work.

   With --trace 0 the run reports the end-to-end metrics; with
   --trace 1 it runs a fixed number of operations untraced and then
   traced, and reports the per-layer ledger (Ledger).  Every output is
   checked against perfbench/oracle.txt, the digests of every input the
   workloads can generate, recorded with --record.  The last line of
   standard output is the result object; the line before it carries
   the run's metadata. *)

module Obs = Vartune_obs.Obs
module Json = Vartune_obs.Json
module Pool = Vartune_util.Pool
module Store = Vartune_store.Store
module Request = Vartune_flow.Request
module Response = Vartune_flow.Response
module Run_request = Vartune_flow.Run_request
module Client = Vartune_serve.Client
module Tuning_method = Vartune_tuning.Tuning_method

let jobs = 2
let connections = 2
let work_root = ".perfbench"
let oracle_file = "perfbench/oracle.txt"
let vartune_exe = "_build/default/bin/vartune.exe"
let now_s () = Int64.to_float (Obs.now_ns ()) /. 1e9
let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

let fresh_dir name =
  let dir = Filename.concat work_root name in
  rm_rf dir;
  mkdir_p dir;
  dir

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* High-water resident set of a process, from /proc ([None]: unknown). *)
let peak_rss_mb pid =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> None
  | status ->
    List.find_map
      (fun line ->
        Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0))
      (String.split_on_char '\n' status)

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

let tuning = Option.get (Tuning_method.of_string "cell/ceiling=0.02")

(* experiment_cold sends the ROADMAP yardstick, [vartune experiment]
   at library seed 42, N=16, for every request: the min-period
   bisection over that library is most of the run, and its cost swings
   by more than 2x between library seeds, which would swamp any
   comparison across workload seeds.  Every request sweeps the standard
   ceilings, so every request does the same work; the workload seed
   draws the order of the sweep, which is the order the pool takes the
   points in and the order of the output lines. *)
let experiment_base = { Request.seed = 42; samples = 16 }
let ceilings = Vartune_flow.Run.std_parameters

let experiment_of_parameters parameters =
  Request.Sweep
    { base = experiment_base; tuning; period = None; parameters; mc_samples = Some 2000 }

let shuffle rng xs =
  let a = Array.of_list xs in
  for k = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (k + 1) in
    let t = a.(k) in
    a.(k) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let experiment_request ~seed i =
  experiment_of_parameters (shuffle (Random.State.make [| seed; i |]) ceilings)

let rec permutations = function
  | [] -> [ [] ]
  | xs ->
    List.concat_map
      (fun x -> List.map (fun p -> x :: p) (permutations (List.filter (( <> ) x) xs)))
      xs

let all_experiment_requests = List.map experiment_of_parameters (permutations ceilings)

(* statlib_build walks a corpus of library seeds, a fresh seeded
   permutation per pass, so every build can be checked against a
   recorded digest. *)
let statlib_corpus = 24
let statlib_samples = 200

let statlib_of_index k =
  Request.Statlib { Request.seed = 1000 + k; samples = statlib_samples }

let statlib_request ~seed i =
  let order =
    shuffle (Random.State.make [| seed; i / statlib_corpus |]) (List.init statlib_corpus Fun.id)
  in
  statlib_of_index (List.nth order (i mod statlib_corpus))

(* serve_warm's requests all share one library (seed 7, N=16), so the
   store warmed in set-up answers every one of them.  Each template is
   sent by one connection only: the two connections never ask for the
   same computation at once, so no reply is a single-flight follower
   and the traced counters repeat exactly.  The two multi-MB replies
   (statlib, characterize) share a connection, so they never overlap
   and the daemon's peak memory does not depend on the order. *)
let serve_base = { Request.seed = 7; samples = 16 }
let serve_dir = Filename.concat work_root "serve_warm"
let parse_file = Filename.concat serve_dir "statlib.lib"

let design ?period ?tuning () =
  Request.Design_sigma
    { base = serve_base; period; tuning; timing_report = false; power = false; verilog = false }

let live_report = Request.Report { trace = None; metrics = None; run_dir = None; json = true }

(* (connection, weight, request); set-up warms them in this order, and
   the statlib reply becomes the file the parse requests read. *)
let serve_templates =
  [
    (0, 1, Request.Statlib serve_base);
    (0, 1, Request.Characterize);
    (0, 4, design ());
    (0, 4, design ~period:5.0 ~tuning ());
    (0, 4, design ~period:6.0 ());
    (0, 3, Request.Sweep
             { base = serve_base; tuning; period = None; parameters = [ 0.01; 0.02; 0.05 ];
               mc_samples = None });
    (0, 2, Request.Parse { file = parse_file });
    (1, 4, design ~tuning ());
    (1, 4, design ~period:5.0 ());
    (1, 4, design ~period:6.0 ~tuning ());
    (1, 3, Request.Tune { base = serve_base; tuning });
    (1, 2, Request.Min_period serve_base);
    (1, 2, live_report);
  ]

(* Connection [c] deals from a deck holding each of its templates
   [weight] times, shuffled afresh by the workload seed for every pass.
   A measured run ends when both connections have sent the same whole
   number of passes, so every run sends the same mix. *)
let deck c =
  List.concat_map
    (fun (c', w, req) -> if c' = c then List.init w (fun _ -> req) else [])
    serve_templates

(* Connection [c]'s [j]-th request. *)
let serve_request ~seed c j =
  let deck = deck c in
  let n = List.length deck in
  List.nth (shuffle (Random.State.make [| seed; c; j / n |]) deck) (j mod n)

(* ------------------------------------------------------------------ *)
(* Output oracle                                                       *)
(* ------------------------------------------------------------------ *)

let digest s = Digest.to_hex (Digest.string s)

let load_oracle () =
  let table = Hashtbl.create 64 in
  List.iter
    (fun line ->
      match String.index_opt line '\t' with
      | Some i ->
        Hashtbl.replace table
          (String.sub line (i + 1) (String.length line - i - 1))
          (String.sub line 0 i)
      | None -> ())
    (String.split_on_char '\n' (read_file oracle_file));
  table

(* A live report describes the daemon's own telemetry, so it only has
   to succeed; every other output must match its recorded digest. *)
let output_ok oracle req (resp : Response.t) =
  resp.Response.code = 0
  && (req = live_report
     || Hashtbl.find_opt oracle (Request.key req) = Some (digest resp.Response.output))

(* Records the digest of every input the workloads can generate. *)
let record () =
  Pool.set_default_jobs jobs;
  let dir = fresh_dir "record" in
  let lines = ref [] in
  let note ?store req =
    let resp = Run_request.exec ?store req in
    if resp.Response.code <> 0 then
      failwith (Printf.sprintf "%s failed: %s" (Request.key req)
                  (Option.value resp.Response.error ~default:""));
    lines := Printf.sprintf "%s\t%s" (digest resp.Response.output) (Request.key req) :: !lines;
    log "recorded %s" (Request.key req);
    resp
  in
  let store = Store.open_dir (Filename.concat dir "experiment") in
  List.iter (fun req -> ignore (note ~store req)) all_experiment_requests;
  for k = 0 to statlib_corpus - 1 do
    ignore (note (statlib_of_index k))
  done;
  ignore (fresh_dir "serve_warm");
  let store = Store.open_dir (Filename.concat dir "serve") in
  List.iter
    (fun (_, _, req) ->
      if req <> live_report then begin
        let resp = note ~store req in
        match req with
        | Request.Statlib _ -> write_file parse_file resp.Response.output
        | _ -> ()
      end)
    serve_templates;
  write_file oracle_file (String.concat "\n" (List.sort compare !lines) ^ "\n");
  rm_rf work_root

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

type op = {
  latency_s : float;  (** caller-observed *)
  ok : bool;  (** code 0 and the expected output *)
  exec_s : float;  (** [Response.elapsed_s] *)
}

let failed_op = { latency_s = infinity; ok = false; exec_s = 0.0 }
let count_failed ops = List.length (List.filter (fun o -> not o.ok) ops)
let failed_ratio ops = float_of_int (count_failed ops) /. float_of_int (List.length ops)

(* Runs [op 0], [op 1], ... (at least one) while the next one, taking
   as long as the last, would end less than half its time past
   [seconds]: a run ends as near [seconds] as whole operations allow. *)
let until ~seconds op =
  let t0 = now_s () in
  let rec go i last acc =
    if i > 0 && now_s () -. t0 +. (last /. 2.0) > seconds then List.rev acc
    else
      let t = now_s () in
      let o = op i in
      go (i + 1) (now_s () -. t) (o :: acc)
  in
  go 0 0.0 []

let repeat n op =
  let rec go i acc = if i >= n then List.rev acc else go (i + 1) (op i :: acc) in
  go 0 []

let timed f =
  let t0 = now_s () in
  let x = f () in
  (x, now_s () -. t0)

(* A failed request counts as missing every latency limit. *)
let latency_ms ops = List.map (fun o -> if o.ok then o.latency_s *. 1e3 else infinity) ops

type measured = {
  setup_s : float list;
  ops : op list;
  wall_s : float;  (** time the operations took, for throughput *)
  rss_mb : float;
}

type traced = {
  all_ops : op list;
  requests : int;  (** requests of the traced pass *)
  evidence : Ledger.evidence;
}

(* ------------------------------------------------------------------ *)
(* In-process workloads: experiment_cold, statlib_build                *)
(* ------------------------------------------------------------------ *)

type inproc = {
  dir : string;
  with_store : bool;  (** a fresh empty store per request *)
  request : int -> Request.t;
  traced_ops : int;
}

(* Set-up: start the pool (and create an empty store). *)
let inproc_setup w k =
  let (), s =
    timed (fun () ->
        Pool.set_default_jobs jobs;
        if w.with_store then
          ignore (Store.open_dir (Filename.concat w.dir (Printf.sprintf "setup-%d" k))))
  in
  s

let inproc_op oracle w i =
  let req = w.request i in
  let store_dir = Filename.concat w.dir (Printf.sprintf "store-%d" i) in
  let store = if w.with_store then Some (Store.open_dir store_dir) else None in
  let resp, latency_s = timed (fun () -> Run_request.exec ?store req) in
  let ok = output_ok oracle req resp in
  rm_rf store_dir;
  if not ok then log "request %d: wrong output (code %d)" i resp.Response.code;
  { latency_s; ok; exec_s = resp.Response.elapsed_s }

let setup_repeats = 201

let inproc_measure oracle w ~seconds =
  let setup_s = repeat setup_repeats (inproc_setup w) in
  let ops = until ~seconds (inproc_op oracle w) in
  let wall_s = List.fold_left (fun acc o -> acc +. o.latency_s) 0.0 ops in
  let rss_mb = Option.value (peak_rss_mb "self") ~default:0.0 in
  { setup_s; ops; wall_s; rss_mb }

let inproc_traced oracle w =
  ignore (inproc_setup w 0);
  let untraced, untraced_wall_s = timed (fun () -> repeat w.traced_ops (inproc_op oracle w)) in
  Obs.reset ();
  Obs.set_enabled true;
  let ops, wall_s = timed (fun () -> repeat w.traced_ops (inproc_op oracle w)) in
  Obs.set_enabled false;
  let all_ops = untraced @ ops in
  {
    all_ops;
    requests = List.length ops;
    evidence =
      {
        Ledger.events = Obs.events ();
        counter = Obs.counter_value;
        wall_s;
        untraced_wall_s;
        exec_ms = List.map (fun o -> o.exec_s *. 1e3) ops;
        transport_ms = [];
        queue_wait_ms = (0.0, 0.0);
        dedup_hits = 0;
        sheds = 0;
        failed_ratio = failed_ratio all_ops;
      };
  }

(* ------------------------------------------------------------------ *)
(* serve_warm                                                          *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; socket : string }

(* Daemons not yet stopped.  Every way out of the benchmark kills and
   reaps them: a normal exit, an uncaught exception, or a signal. *)
let running = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !running);
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm; Sys.sighup ]

let start_daemon ~store_dir ?trace ?metrics_out () =
  let socket = Filename.concat serve_dir "serve.sock" in
  let args =
    [ vartune_exe; "serve"; "--socket"; socket; "--store"; store_dir; "--serve-workers";
      string_of_int connections; "--jobs"; string_of_int jobs ]
    @ (match trace with Some file -> [ "--trace"; file ] | None -> [])
    @ match metrics_out with Some file -> [ "--metrics-out"; file ] | None -> []
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let logfd =
    Unix.openfile (Filename.concat serve_dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid = Unix.create_process vartune_exe (Array.of_list args) devnull logfd logfd in
  running := pid :: !running;
  Unix.close devnull;
  Unix.close logfd;
  let d = { pid; socket } in
  let t0 = now_s () in
  let rec wait () =
    match Client.connect socket with
    | c -> Client.close c
    | exception Unix.Unix_error _ ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        running := List.filter (( <> ) pid) !running;
        failwith "vartune serve exited during start-up (see its daemon.log)");
      if now_s () -. t0 > 60.0 then failwith "vartune serve did not open its socket within 60 s";
      Unix.sleepf 0.005;
      wait ()
  in
  wait ();
  d

(* SIGTERM drains the daemon (exit 75, the trace written at exit). *)
let stop_daemon d =
  Unix.kill d.pid Sys.sigterm;
  let t0 = now_s () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now_s () -. t0 < 60.0 ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      Unix.kill d.pid Sys.sigkill;
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  wait ();
  running := List.filter (( <> ) d.pid) !running

let with_daemon ~store_dir ?trace ?metrics_out f =
  let d = start_daemon ~store_dir ?trace ?metrics_out () in
  Fun.protect ~finally:(fun () -> stop_daemon d) (fun () -> f d)

(* A reply with its per-request fields blanked: what must repeat byte
   for byte. *)
let canonical (resp : Response.t) =
  Response.to_line { resp with Response.id = None; elapsed_s = 0.0; dedup = false }

(* Starts a daemon on a fresh store and sends every template once,
   checking each output against the oracle.  Returns the daemon, the
   canonical replies, the set-up time and a failed op per wrong
   reply. *)
let serve_setup oracle k =
  let store_dir = Filename.concat serve_dir (Printf.sprintf "store-%d" k) in
  rm_rf store_dir;
  let t0 = now_s () in
  let d = start_daemon ~store_dir () in
  let warm () =
    let client = Client.connect d.socket in
    Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
    List.partition_map
      (fun (_, _, req) ->
        match Client.request client req with
        | Ok resp when output_ok oracle req resp ->
          (match req with
          | Request.Statlib _ -> write_file parse_file resp.Response.output
          | _ -> ());
          Left (req, canonical resp)
        | _ ->
          log "set-up reply to %s is wrong" (Request.key req);
          Right failed_op)
      serve_templates
  in
  match warm () with
  | replies, wrong -> (d, store_dir, replies, now_s () -. t0, wrong)
  | exception exn ->
    stop_daemon d;
    raise exn

(* [Deadline (s, pass)]: while a lane's next pass, taking as long as its
   last, would end less than half its time past [s] seconds, and until
   every lane has sent the same whole number of passes, lane [c]'s pass
   being [pass c] requests, so every run sends the same mix. *)
type bound = Deadline of float * (int -> int) | Count of int

(* Each lane is one connection on its own thread, sending its
   sequence one request at a time until the bound. *)
let serve_load d replies ~lanes bound =
  let t0 = now_s () in
  (* Passes each lane has begun; a lane leaving early counts none, so no
     other lane waits for it. *)
  let started = Array.make (List.length lanes) 0 and lock = Mutex.create () in
  let pass_t0 = Array.make (List.length lanes) t0 in
  let continue_at c j =
    match bound with
    | Count n -> j < n
    | Deadline (_, pass) when j mod pass c <> 0 -> true
    | Deadline (s, pass) ->
      Mutex.protect lock (fun () ->
          let now = now_s () in
          let last = now -. pass_t0.(c) in
          pass_t0.(c) <- now;
          let go = now -. t0 +. (last /. 2.0) <= s || j / pass c < Array.fold_left max 0 started in
          if go then started.(c) <- (j / pass c) + 1;
          go)
  in
  let lane_ops c next =
    let client = Client.connect d.socket in
    Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
    let rec go j acc =
      if not (continue_at c j) then List.rev acc
      else
        let req = next j in
        match timed (fun () -> Client.request ~id:j client req) with
        | Ok resp, latency_s ->
          let ok =
            if req = live_report then resp.Response.code = 0
            else List.assoc_opt req replies = Some (canonical resp)
          in
          if not ok then log "connection %d request %d: reply differs from set-up" c j;
          go (j + 1) ({ latency_s; ok; exec_s = resp.Response.elapsed_s } :: acc)
        | Error msg, _ ->
          log "connection %d request %d: %s" c j msg;
          go (j + 1) (failed_op :: acc)
        | exception (End_of_file | Unix.Unix_error _ | Sys_error _) ->
          (* the connection is gone: the rest of its requests fail *)
          Mutex.protect lock (fun () -> started.(c) <- 0);
          List.rev (failed_op :: acc)
    in
    go 0 []
  in
  let results = Array.make (List.length lanes) [] in
  let (), wall_s =
    timed (fun () ->
        List.iter Thread.join
          (List.mapi
             (fun c next -> Thread.create (fun () -> results.(c) <- lane_ops c next) ())
             lanes))
  in
  (List.concat (Array.to_list results), wall_s)

(* Set-up warms a fresh store once, then [serving_starts] times starts a
   daemon over the warmed store and sends it every template once: a
   daemon's first replies are slower than its later ones, and a run that
   measured them would read differently from one that measured one pass
   more.  The last of these daemons serves the measured load, so its peak
   RSS is that of serving, not of the warm-up computations.  Each set-up
   sample is the warm-up's time plus one serving start's. *)
let serving_starts = 2

let serving_start ~store_dir replies =
  let t0 = now_s () in
  let d = start_daemon ~store_dir () in
  let templates = Array.of_list (List.map (fun (_, _, req) -> req) serve_templates) in
  match serve_load d replies ~lanes:[ Array.get templates ] (Count (Array.length templates)) with
  | first, _ -> (d, now_s () -. t0, List.filter (fun o -> not o.ok) first)
  | exception exn ->
    stop_daemon d;
    raise exn

let serve_measure oracle ~seed ~seconds =
  let d, store_dir, replies, warm_s, wrong = serve_setup oracle 0 in
  stop_daemon d;
  let rec starts k acc wrong =
    let d, s, wrong' = serving_start ~store_dir replies in
    if k + 1 < serving_starts then begin
      stop_daemon d;
      starts (k + 1) (s :: acc) (wrong @ wrong')
    end
    else (d, s :: acc, wrong @ wrong')
  in
  let d, start_s, wrong = starts 0 [] wrong in
  log "set-up: store warm-up %.2f s, serving starts %s s" warm_s
    (String.concat " " (List.rev_map (Printf.sprintf "%.2f") start_s));
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  let lanes = List.init connections (serve_request ~seed) in
  let pass c = List.length (deck c) in
  let ops, wall_s = serve_load d replies ~lanes (Deadline (seconds, pass)) in
  let rss_mb = Option.value (peak_rss_mb (string_of_int d.pid)) ~default:0.0 in
  { setup_s = List.map (fun s -> warm_s +. s) start_s; ops = wrong @ ops; wall_s; rss_mb }

let serve_traced_requests = 40

(* Chrome trace written by the daemon, back to span events (Obs.Profile
   reads the same format but keeps its events to itself). *)
let events_of_trace file =
  let json =
    match Json.parse (read_file file) with Ok j -> j | Error e -> failwith ("trace: " ^ e)
  in
  let evs = Option.value (Option.bind (Json.member "traceEvents" json) Json.to_list) ~default:[] in
  List.filter_map
    (fun ev ->
      let str k = Option.bind (Json.member k ev) Json.to_string_opt in
      let num k = Option.bind (Json.member k ev) Json.to_float in
      match (str "ph", str "name", num "tid", num "ts", num "dur") with
      | Some "X", Some name, Some tid, Some ts, Some dur ->
        let args = Option.value (Json.member "args" ev) ~default:(Json.Object []) in
        let anum k = Option.value (Option.bind (Json.member k args) Json.to_float) ~default:0.0 in
        let attrs =
          match args with
          | Json.Object kvs ->
            List.filter_map
              (function k, Json.String s when k <> "wall_start_ns" -> Some (k, s) | _ -> None)
              kvs
          | _ -> []
        in
        Some
          {
            Obs.name;
            dom = int_of_float tid;
            ts_us = ts;
            dur_us = dur;
            wall_start_ns = 0L;
            gc =
              {
                Obs.minor_words = anum "gc_minor_words";
                major_words = anum "gc_major_words";
                minor_collections = int_of_float (anum "gc_minor_collections");
                major_collections = int_of_float (anum "gc_major_collections");
              };
            attrs;
          }
      | _ -> None)
    evs

let get_json d endpoint =
  let c = Client.connect d.socket in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
      match Json.parse (Client.get c endpoint) with
      | Ok j -> j
      | Error e -> failwith (Printf.sprintf "GET %s: %s" endpoint e))

let json_path j path =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path

let json_num j path = Option.value (Option.bind (json_path j path) Json.to_float) ~default:0.0

(* The untraced and traced passes send both connections' first
   [serve_traced_requests] requests over one connection, one at a
   time: the daemon's worker threads share a domain, and spans of
   concurrent requests would overlap on its one track, which no fold
   into self times can untangle.  A third pass sends the same requests
   over the two connections of the measured load, to a daemon with
   telemetry on, and gives the queue wait, dedup hits and sheds. *)
let serve_traced oracle ~seed =
  let d, store_dir, replies, _, wrong = serve_setup oracle 0 in
  stop_daemon d;
  let serial = [ (fun j -> serve_request ~seed (j mod connections) (j / connections)) ] in
  let bound = Count (serve_traced_requests * connections) in
  let untraced, untraced_wall_s =
    with_daemon ~store_dir (fun d -> serve_load d replies ~lanes:serial bound)
  in
  let trace_file = Filename.concat serve_dir "trace.json" in
  let (ops, wall_s), metrics =
    with_daemon ~store_dir ~trace:trace_file (fun d ->
        let run = serve_load d replies ~lanes:serial bound in
        (run, get_json d "metrics"))
  in
  let (concurrent, _), load_metrics, health =
    with_daemon ~store_dir ~metrics_out:(Filename.concat serve_dir "metrics.json") (fun d ->
        let lanes = List.init connections (serve_request ~seed) in
        let run = serve_load d replies ~lanes (Count serve_traced_requests) in
        (run, get_json d "metrics", get_json d "health"))
  in
  let all_ops = wrong @ untraced @ ops @ concurrent in
  let ok_ops = List.filter (fun o -> o.ok) ops in
  {
    all_ops;
    requests = List.length ops;
    evidence =
      {
        Ledger.events = events_of_trace trace_file;
        counter = (fun name -> int_of_float (json_num metrics [ "counters"; name ]));
        wall_s;
        untraced_wall_s;
        exec_ms = List.map (fun o -> o.exec_s *. 1e3) ok_ops;
        transport_ms = List.map (fun o -> (o.latency_s -. o.exec_s) *. 1e3) ok_ops;
        queue_wait_ms =
          ( json_num load_metrics [ "histograms"; "serve.queue_wait_ms"; "p50" ],
            json_num load_metrics [ "histograms"; "serve.queue_wait_ms"; "p90" ] );
        dedup_hits = int_of_float (json_num health [ "dedup_hits" ]);
        sheds = int_of_float (json_num health [ "sheds" ]);
        failed_ratio = failed_ratio all_ops;
      };
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let workloads = [ "experiment_cold"; "statlib_build"; "serve_warm" ]

let inproc_workload name ~dir ~seed =
  match name with
  | "experiment_cold" ->
    Some { dir; with_store = true; request = experiment_request ~seed; traced_ops = 1 }
  | "statlib_build" ->
    Some { dir; with_store = false; request = statlib_request ~seed; traced_ops = 3 }
  | _ -> None

let num v = Json.float_string (if Float.is_finite v then v else Float.max_float)

let result_line ~ops metrics =
  let failed = count_failed ops in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (failed = 0) (List.length ops) failed
    (String.concat ", "
       (List.map
          (fun (name, value, unit_) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num value) unit_)
          metrics))

(* Digest of the library and CLI sources the numbers were measured on:
   the checkout the benchmark runs in need not be a git repository. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p else [ p ])
  in
  files "lib" @ files "bin"
  |> List.map (fun p -> p ^ "\000" ^ read_file p)
  |> String.concat "" |> digest

let git_commit () =
  if not (Sys.file_exists ".git") then "none"
  else
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "none" in
    ignore (Unix.close_process_in ic);
    line

let meta_line ~workload ~seed ~seconds ~trace extra =
  let fields =
    [
      ("workload", Printf.sprintf "%S" workload);
      ("seed", string_of_int seed);
      ("run_seconds", num seconds);
      ("trace", string_of_int trace);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Printf.sprintf "%S" Sys.ocaml_version);
      ("git_commit", Printf.sprintf "%S" (git_commit ()));
      ("source_md5", Printf.sprintf "%S" (source_digest ()));
      ("pool_jobs", string_of_int jobs);
    ]
    @ extra
  in
  Printf.sprintf "{\"meta\": {%s}}"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields))

let report_measured ~workload ~seed ~seconds m =
  let lat = latency_ms m.ops in
  let ok = List.length (List.filter (fun o -> o.ok) m.ops) in
  print_endline
    (meta_line ~workload ~seed ~seconds ~trace:0
       [
         ("setup_samples", string_of_int (List.length m.setup_s));
         ("latency_samples", string_of_int (List.length lat));
         ("connections", string_of_int (if workload = "serve_warm" then connections else 1));
       ]);
  print_endline
    (result_line ~ops:m.ops
       [
         ("setup_s", Ledger.quantile 0.5 m.setup_s, "s");
         ("request_p50_ms", Ledger.quantile 0.5 lat, "ms");
         ("request_p90_ms", Ledger.quantile 0.9 lat, "ms");
         ("requests_per_s", float_of_int ok /. m.wall_s, "1/s");
         ("peak_rss_mb", m.rss_mb, "MB");
       ])

let report_traced ~workload ~seed ~seconds t =
  let ev = t.evidence in
  let values = Ledger.evaluate ev in
  Printf.printf "%-16s %-30s %12s %-6s %-6s  %s\n" "layer" "metric" "value" "unit" "better"
    "should move / should not move";
  List.iter
    (fun ((row : Ledger.row), v) ->
      Printf.printf "%-16s %-30s %12.6g %-6s %-6s  %s / %s\n" row.Ledger.layer row.Ledger.name v
        row.Ledger.unit_ row.Ledger.better row.Ledger.moves row.Ledger.still)
    values;
  print_endline
    (Printf.sprintf "{\"counters\": {%s}}"
       (String.concat ", "
          (List.map
             (fun c -> Printf.sprintf "%S: %d" c (ev.Ledger.counter c))
             Ledger.deterministic_counters)));
  print_endline
    (meta_line ~workload ~seed ~seconds ~trace:1
       [ ("traced_requests", string_of_int t.requests) ]);
  print_endline
    (result_line ~ops:t.all_ops
       (List.map (fun ((row : Ledger.row), v) -> (row.Ledger.name, v, row.Ledger.unit_)) values))

let usage () =
  prerr_endline
    "usage: main.exe --workload (experiment_cold|statlib_build|serve_warm) --seed N \
     --seconds S --trace 0|1\n       main.exe --record";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if args = [ "--record" ] then record ()
  else begin
    let rec parse acc = function
      | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let opts = parse [] args in
    let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
    let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
    let workload = get "workload" in
    let seed = int "seed" and seconds = float_of_int (int "seconds") and trace = int "trace" in
    if not (List.mem workload workloads) || seconds <= 0.0 || (trace <> 0 && trace <> 1) then
      usage ();
    let oracle = load_oracle () in
    let dir = fresh_dir workload in
    (match (inproc_workload workload ~dir ~seed, trace) with
    | Some w, 0 -> report_measured ~workload ~seed ~seconds (inproc_measure oracle w ~seconds)
    | Some w, _ -> report_traced ~workload ~seed ~seconds (inproc_traced oracle w)
    | None, 0 -> report_measured ~workload ~seed ~seconds (serve_measure oracle ~seed ~seconds)
    | None, _ -> report_traced ~workload ~seed ~seconds (serve_traced oracle ~seed));
    rm_rf work_root
  end
