(* Subprocess tests of the vartune CLI's typed exit codes and the
   journaled interrupt/resume cycle: usage errors (64) for malformed
   fault specs and tuning environment variables, data errors (65) for
   unparsable inputs and damaged journals, I/O errors (74) for a full
   stdout, and the checkpoint → exit 75 → resume → bit-identical-output
   contract end to end through the real binary — plus golden digests
   that pin the statistical library's bytes absolutely, not only
   relative to another run of the same build. *)

module Library = Vartune_liberty.Library
module Printer = Vartune_liberty.Printer
module Codec = Vartune_store.Codec
module Request = Vartune_flow.Request
module Run = Vartune_flow.Run

(* The binary is a declared dune dep, built next to this test:
   _build/default/{test/test_cli.exe, bin/vartune.exe}.  Resolve it
   from the test's own path so the suite works from any cwd. *)
let exe =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "vartune.exe")

let bench_exe =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bench" "main.exe")

let temp_root = Helpers.temp_root "vartune_test_cli"
let mkdir_p = Helpers.mkdir_p

let in_temp name =
  mkdir_p temp_root;
  Filename.concat temp_root name

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

(* Runs the vartune binary through the shell (for env assignments and
   redirections), returning the exit code; stdout+stderr land in
   [capture] when given, else /dev/null. *)
let run_exe exe ?(env = []) ?capture ?(stdout_to = "") args =
  let out =
    match (capture, stdout_to) with
    | Some path, _ -> Printf.sprintf "> %s 2>&1" (Filename.quote path)
    | None, "" -> "> /dev/null 2>&1"
    | None, dest -> Printf.sprintf "> %s 2> /dev/null" dest
  in
  let assigns =
    String.concat " "
      (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (Filename.quote v)) env)
  in
  let cmd =
    Printf.sprintf "%s %s %s %s" assigns (Filename.quote exe)
      (String.concat " " (List.map Filename.quote args))
      out
  in
  Sys.command cmd

let vartune = run_exe exe

let check_exit name expected code = Alcotest.(check int) name expected code

(* ------------------------------------------------------------------ *)
(* Typed exit codes                                                    *)
(* ------------------------------------------------------------------ *)

let test_usage_errors () =
  check_exit "malformed --faults spec exits 64" 64
    (vartune [ "journal"; in_temp "none"; "--faults"; "bogus=1" ]);
  check_exit "unknown fault point exits 64" 64
    (vartune [ "journal"; in_temp "none"; "--faults"; "write=2.0" ]);
  check_exit "negative VARTUNE_POOL_STALL_S exits 64" 64
    (vartune ~env:[ ("VARTUNE_POOL_STALL_S", "-3") ] [ "journal"; in_temp "none" ]);
  check_exit "NaN VARTUNE_POOL_STALL_S exits 64" 64
    (vartune ~env:[ ("VARTUNE_POOL_STALL_S", "nan") ] [ "journal"; in_temp "none" ]);
  check_exit "malformed VARTUNE_CKPT_BLOCKS exits 64" 64
    (vartune ~env:[ ("VARTUNE_CKPT_BLOCKS", "zero") ] [ "journal"; in_temp "none" ]);
  check_exit "non-positive VARTUNE_STOP_AFTER_BLOCKS exits 64" 64
    (vartune ~env:[ ("VARTUNE_STOP_AFTER_BLOCKS", "0") ] [ "journal"; in_temp "none" ])

let test_data_error () =
  let bad = in_temp "garbage.lib" in
  write_file bad "this is not a liberty file {";
  check_exit "unparsable library exits 65" 65 (vartune [ "parse"; bad ])

let tiny_lib_path () =
  let path = in_temp "tiny.lib" in
  Printer.write_file path (Library.make ~name:"tiny" ~corner:"tc" ~cells:[]);
  path

let test_io_error_full_stdout () =
  if Sys.file_exists "/dev/full" then begin
    let tiny = tiny_lib_path () in
    check_exit "write to full stdout exits 74" 74
      (vartune ~stdout_to:"/dev/full" [ "parse"; tiny ])
  end

let test_parse_ok () =
  let tiny = tiny_lib_path () in
  check_exit "well-formed library parses" 0 (vartune [ "parse"; tiny ])

let test_resume_damaged_journal () =
  let no_journal = in_temp "empty_run" in
  mkdir_p no_journal;
  check_exit "resume without a journal exits 65" 65
    (vartune [ "resume"; no_journal; "--no-store" ]);
  let corrupt = in_temp "corrupt_run" in
  mkdir_p corrupt;
  write_file (Filename.concat corrupt "journal.vtj") "VTJRNL01 not really a journal";
  check_exit "resume of a corrupt journal exits 65" 65
    (vartune [ "resume"; corrupt; "--no-store" ]);
  check_exit "journal listing of a corrupt journal exits 65" 65
    (vartune [ "journal"; corrupt ])

(* A well-formed header of journal version 2 (fixed-field Run_started
   records): refused as a typed data error naming the version. *)
let test_old_journal_version () =
  let rd = in_temp "v2_run" in
  mkdir_p rd;
  let b = Buffer.create 24 in
  Buffer.add_string b "VTJRNL01";
  Codec.w_int b 2;
  Codec.w_int b Codec.version;
  write_file (Run.journal_path rd) (Buffer.contents b);
  List.iter
    (fun args ->
      let capture = in_temp "v2_out.txt" in
      check_exit (String.concat " " args ^ " of a v2 journal exits 65") 65
        (vartune ~capture args);
      let out = read_file capture in
      Alcotest.(check bool)
        (Printf.sprintf "message names journal version 2: %S" out)
        true
        (Helpers.contains out "journal version 2"))
    [ [ "resume"; rd; "--no-store" ]; [ "journal"; rd ] ]

(* ------------------------------------------------------------------ *)
(* Interrupt / resume through the real binary                          *)
(* ------------------------------------------------------------------ *)

let test_statlib_interrupt_resume () =
  let rd = in_temp "run" and rd_ref = in_temp "run_ref" in
  let common = [ "-n"; "8"; "--jobs"; "1"; "--no-store" ] in
  (* deterministic interrupt: stop after the first checkpointed block *)
  check_exit "interrupted run exits 75" 75
    (vartune
       ~env:[ ("VARTUNE_STOP_AFTER_BLOCKS", "1"); ("VARTUNE_CKPT_BLOCKS", "1") ]
       ([ "statlib"; "--run-dir"; rd ] @ common));
  let listing = in_temp "journal.txt" in
  check_exit "journal listing validates" 0 (vartune ~capture:listing [ "journal"; rd ]);
  let lines = String.split_on_char '\n' (read_file listing) in
  Alcotest.(check bool)
    "journal records a checkpoint" true
    (List.exists (fun l -> String.length l >= 10 && String.sub l 0 10 = "checkpoint") lines);
  check_exit "resume completes" 0 (vartune ([ "resume"; rd ] @ common));
  check_exit "uninterrupted reference run" 0
    (vartune ([ "statlib"; "--run-dir"; rd_ref ] @ common));
  Alcotest.(check string)
    "resumed statlib.lib bit-identical to uninterrupted"
    (read_file (Filename.concat rd_ref "statlib.lib"))
    (read_file (Filename.concat rd "statlib.lib"));
  Alcotest.(check string)
    "resumed report.txt identical to uninterrupted"
    (read_file (Filename.concat rd_ref "report.txt"))
    (read_file (Filename.concat rd "report.txt"))

(* ------------------------------------------------------------------ *)
(* Overload drain through the real binary                              *)
(* ------------------------------------------------------------------ *)

module Response = Vartune_flow.Response
module Client = Vartune_serve.Client
module Json = Vartune_obs.Json

(* SIGTERM with the pipeline full: one request executing (stretched by
   the pinned delay fault), two queued behind the single worker.  The
   daemon must answer the in-flight request with its real result, shed
   both queued ones with typed code-75 replies before the socket file
   disappears, and itself exit 75 — no client left hanging. *)
let test_serve_sigterm_drain_under_load () =
  let socket = in_temp "overload.sock" in
  if Sys.file_exists socket then Sys.remove socket;
  let dev_null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0o644 in
  let env = Array.append (Unix.environment ()) [| "VARTUNE_FAULTS=delay=1.0:3" |] in
  let pid =
    Unix.create_process_env exe
      [| exe; "serve"; "--socket"; socket; "--serve-workers"; "1"; "--queue-cap"; "4" |]
      env Unix.stdin dev_null dev_null
  in
  Unix.close dev_null;
  let deadline = Unix.gettimeofday () +. 30.0 in
  while not (Sys.file_exists socket) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.05
  done;
  Alcotest.(check bool) "daemon bound its socket" true (Sys.file_exists socket);
  let results = Array.make 3 None in
  let fire i seed =
    Thread.create
      (fun () ->
        let client = Client.connect socket in
        Fun.protect
          ~finally:(fun () -> Client.close client)
          (fun () ->
            results.(i) <-
              Some (Client.request client (Request.Statlib { Request.seed; samples = 2 }))))
      ()
  in
  (* GET health is answered inline even under overload, so it is the
     probe for the daemon's internal queue state. *)
  let health_field field =
    let client = Client.connect socket in
    Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
    match Json.parse (Client.get client "health") with
    | Ok json -> (
      match Json.member field json with Some (Json.Number n) -> int_of_float n | _ -> 0)
    | Error _ -> 0
  in
  let wait_for field n =
    let deadline = Unix.gettimeofday () +. 30.0 in
    let rec go () =
      if health_field field >= n then true
      else if Unix.gettimeofday () >= deadline then false
      else begin
        Unix.sleepf 0.02;
        go ()
      end
    in
    go ()
  in
  let ta = fire 0 300 in
  Alcotest.(check bool) "one request reached the worker" true (wait_for "active" 1);
  let tb = fire 1 301 in
  let tc = fire 2 302 in
  Alcotest.(check bool) "two requests queued behind it" true (wait_for "queued" 2);
  Unix.kill pid Sys.sigterm;
  List.iter Thread.join [ ta; tb; tc ];
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> check_exit "SIGTERM drains to exit 75" 75 code
  | _, Unix.WSIGNALED s -> Alcotest.failf "daemon killed by signal %d instead of draining" s
  | _, Unix.WSTOPPED _ -> Alcotest.fail "daemon stopped unexpectedly");
  Alcotest.(check bool) "socket file removed on drain" false (Sys.file_exists socket);
  let resp tag i =
    match results.(i) with
    | Some (Ok r) -> r
    | Some (Error e) -> Alcotest.failf "%s response unreadable: %s" tag e
    | None -> Alcotest.failf "%s request got no reply" tag
  in
  Alcotest.(check int) "in-flight request answered with its result" 0
    (resp "in-flight" 0).Response.code;
  List.iter
    (fun (tag, i) ->
      let r = resp tag i in
      Alcotest.(check int) (tag ^ " shed with 75") 75 r.Response.code;
      Alcotest.(check bool)
        (tag ^ " carries a retry hint")
        true
        (r.Response.retry_after_s <> None))
    [ ("queued B", 1); ("queued C", 2) ]

(* The bench's integer knobs reject a non-integer with 64, naming the
   variable and the token, before doing any work. *)
let test_bench_env_ints () =
  List.iter
    (fun (part, var, token) ->
      let log = in_temp ("bench_" ^ var) in
      check_exit
        (Printf.sprintf "%s=%s exits 64" var token)
        64
        (run_exe bench_exe ~env:[ ("VARTUNE_BENCH_PARTS", part); (var, token) ] ~capture:log []);
      let msg = read_file log in
      Alcotest.(check bool) (var ^ " named with its token") true
        (Helpers.contains msg var && Helpers.contains msg token))
    [
      ("kernels", "VARTUNE_SAMPLES", "abc");
      ("kernels", "VARTUNE_SEED", "4.2");
      ("serve", "VARTUNE_SERVE_REQUESTS", "many");
      ("overload", "VARTUNE_OVERLOAD_QUEUE_CAP", "8x");
    ]

(* ------------------------------------------------------------------ *)
(* Golden digests                                                      *)
(* ------------------------------------------------------------------ *)

(* MD5 hex of the seed-42, N=8 statistical library and of its
   journaled run's report.  They pin results absolutely: a change here
   means the results moved, and needs a CHANGES.md line saying why. *)
let golden_statlib = "c5ac3cb06dbf8bcb921c321050cb810c"
let golden_report = "042c209e17ab1a9b0d97f34910f073f4"

let digest s = Digest.to_hex (Digest.string s)

let test_golden_eval () =
  let evaled = Run.eval (Request.Statlib { seed = 42; samples = 8 }) in
  Alcotest.(check string) "statlib seed 42, N=8" golden_statlib (digest evaled.Run.out)

(* The seed-42, N=16 experiment — the request perfbench's
   experiment_cold workload sends, whose oracle line carries the same
   digest — and its minimum period, pinned bit for bit. *)
let golden_experiment = "67260b2c54302e0e4a437d8ef52edaa4"
let golden_min_period_bits = 4616279778008236032L (* 4.080078125 ns *)

let test_golden_experiment () =
  let out = in_temp "experiment.out" in
  check_exit "experiment exits 0" 0
    (vartune ~stdout_to:(Filename.quote out)
       [ "experiment"; "-n"; "16"; "--seed"; "42"; "--no-store" ]);
  Alcotest.(check string) "experiment stdout" golden_experiment (digest (read_file out));
  let setup =
    Vartune_flow.Experiment.prepare_request (Request.Min_period { seed = 42; samples = 16 })
  in
  Alcotest.(check int64) "minimum period bits" golden_min_period_bits
    (Int64.bits_of_float setup.Vartune_flow.Experiment.min_period)

let test_golden_run_dir () =
  let rd = in_temp "golden_run" in
  check_exit "journaled statlib exits 0" 0
    (vartune [ "statlib"; "-n"; "8"; "--jobs"; "1"; "--no-store"; "--run-dir"; rd ]);
  Alcotest.(check string) "statlib.lib" golden_statlib
    (digest (read_file (Filename.concat rd "statlib.lib")));
  Alcotest.(check string) "report.txt" golden_report
    (digest (read_file (Filename.concat rd "report.txt")))

let () =
  Alcotest.run "cli"
    [
      ( "exit-codes",
        [
          Alcotest.test_case "usage errors (64)" `Quick test_usage_errors;
          Alcotest.test_case "data error (65)" `Quick test_data_error;
          Alcotest.test_case "full stdout (74)" `Quick test_io_error_full_stdout;
          Alcotest.test_case "parse ok (0)" `Quick test_parse_ok;
          Alcotest.test_case "damaged journal (65)" `Quick test_resume_damaged_journal;
          Alcotest.test_case "journal version 2 (65)" `Quick test_old_journal_version;
          Alcotest.test_case "bench integer knobs (64)" `Quick test_bench_env_ints;
        ] );
      ( "golden",
        [
          Alcotest.test_case "Run.eval statlib digest" `Quick test_golden_eval;
          Alcotest.test_case "statlib --run-dir digests" `Quick test_golden_run_dir;
          Alcotest.test_case "experiment seed 42, N=16" `Slow test_golden_experiment;
        ] );
      ( "resume",
        [
          Alcotest.test_case "statlib interrupt/resume" `Slow test_statlib_interrupt_resume;
        ] );
      ( "serve",
        [
          Alcotest.test_case "SIGTERM drain under load" `Slow
            test_serve_sigterm_drain_under_load;
        ] );
    ]
