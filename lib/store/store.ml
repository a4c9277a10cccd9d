module Obs = Vartune_obs.Obs
module Fault = Vartune_fault.Fault

let src = Logs.Src.create "vartune.store" ~doc:"persistent artifact store"

module Log = (val Logs.src_log src : Logs.LOG)

let c_hit = Obs.Counter.make "store.hit"
let c_miss = Obs.Counter.make "store.miss"
let c_write = Obs.Counter.make "store.write"
let c_evict = Obs.Counter.make "store.evict"
let c_read_bytes = Obs.Counter.make "store.read_bytes"
let c_write_bytes = Obs.Counter.make "store.write_bytes"
let c_retry = Obs.Counter.make "store.retry"
let c_error = Obs.Counter.make "store.error"
let c_degraded = Obs.Counter.make "store.degraded"

(* ------------------------------------------------------------------ *)
(* Keys                                                                *)
(* ------------------------------------------------------------------ *)

module Key = struct
  (* The recipe accumulates into a plain string: every ingredient is
     labelled and typed, strings are length-prefixed, floats travel as
     bit patterns — two distinct recipes can never serialise to the
     same id.  The id itself is stored in the entry and compared on
     read, so the digest below only has to spread entries across file
     names, not guarantee uniqueness. *)
  type t = string

  let v stage = Printf.sprintf "v%d|%s" Codec.version stage
  let int t label value = Printf.sprintf "%s|%s=i:%d" t label value
  let bool t label value = Printf.sprintf "%s|%s=b:%b" t label value
  let float t label value = Printf.sprintf "%s|%s=f:%Lx" t label (Int64.bits_of_float value)

  let str t label value =
    Printf.sprintf "%s|%s=s%d:%s" t label (String.length value) value

  let floats t label values =
    let b = Buffer.create (String.length t + 32 + (Array.length values * 17)) in
    Buffer.add_string b t;
    Buffer.add_string b (Printf.sprintf "|%s=F%d:" label (Array.length values));
    Array.iter
      (fun v -> Buffer.add_string b (Printf.sprintf "%Lx," (Int64.bits_of_float v)))
      values;
    Buffer.contents b

  let id t = t

  (* FNV-1a 64 under two different offset bases: a 128-bit spread. *)
  let fnv1a64 seed s =
    String.fold_left
      (fun h c -> Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) 0x100000001b3L)
      seed s

  let hex t =
    Printf.sprintf "%016Lx%016Lx"
      (fnv1a64 0xcbf29ce484222325L t)
      (fnv1a64 0x6c62272e07bb0142L t)
end

(* ------------------------------------------------------------------ *)
(* Errors                                                              *)
(* ------------------------------------------------------------------ *)

type error =
  | Io of { site : string; reason : string }
  | No_space of { site : string }
  | Locked
  | Disabled

let error_to_string = function
  | Io { site; reason } -> Printf.sprintf "I/O failure at %s: %s" site reason
  | No_space { site } -> Printf.sprintf "no space left on device at %s" site
  | Locked -> "entry locked by a live writer"
  | Disabled -> "store degraded to no-store mode"

(* ------------------------------------------------------------------ *)
(* Store handle                                                        *)
(* ------------------------------------------------------------------ *)

type t = {
  root : string;
  hits : int Atomic.t;
  misses : int Atomic.t;
  writes : int Atomic.t;
  evictions : int Atomic.t;
  read_bytes : int Atomic.t;
  written_bytes : int Atomic.t;
  retries : int Atomic.t;
  errors : int Atomic.t;
  consec_failures : int Atomic.t;
  is_degraded : bool Atomic.t;
}

type stats = {
  hits : int;
  misses : int;
  writes : int;
  evictions : int;
  read_bytes : int;
  written_bytes : int;
  retries : int;
  errors : int;
  degraded : bool;
}

let stats (t : t) =
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    writes = Atomic.get t.writes;
    evictions = Atomic.get t.evictions;
    read_bytes = Atomic.get t.read_bytes;
    written_bytes = Atomic.get t.written_bytes;
    retries = Atomic.get t.retries;
    errors = Atomic.get t.errors;
    degraded = Atomic.get t.is_degraded;
  }

let degraded t = Atomic.get t.is_degraded
let dir t = t.root
let objects_dir t = Filename.concat t.root "objects"

let default_dir () =
  match Sys.getenv_opt "VARTUNE_STORE" with
  | Some d when d <> "" -> d
  | _ -> (
    match Sys.getenv_opt "XDG_CACHE_HOME" with
    | Some d when d <> "" -> Filename.concat d "vartune"
    | _ -> (
      match Sys.getenv_opt "HOME" with
      | Some h when h <> "" ->
        Filename.concat (Filename.concat h ".cache") "vartune"
      | _ -> "_vartune_store"))

let rec mkdir_p path =
  if path <> "" && path <> "/" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Grace period after which another writer's lock (or an orphaned temp
   file) is considered abandoned — a crashed process, not a live one. *)
let stale_age_s = 120.0

let is_litter name =
  Filename.check_suffix name ".lock"
  || List.mem "tmp" (String.split_on_char '.' name)

let file_age path =
  match Unix.stat path with
  | { Unix.st_mtime; _ } -> Some (Unix.gettimeofday () -. st_mtime)
  | exception Unix.Unix_error _ -> None

let remove_quietly path = try Sys.remove path with Sys_error _ -> ()
let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()
let readdir_quietly path = try Sys.readdir path with Sys_error _ -> [||]

let sweep_litter root =
  let objects = Filename.concat root "objects" in
  Array.iter
    (fun sub ->
      let subdir = Filename.concat objects sub in
      if try Sys.is_directory subdir with Sys_error _ -> false then
        Array.iter
          (fun name ->
            if is_litter name then begin
              let path = Filename.concat subdir name in
              match file_age path with
              | Some age when age > stale_age_s ->
                Log.debug (fun m -> m "sweeping stale file %s" path);
                remove_quietly path
              | _ -> ()
            end)
          (readdir_quietly subdir))
    (readdir_quietly objects)

let open_dir root =
  mkdir_p (Filename.concat root "objects");
  sweep_litter root;
  {
    root;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    writes = Atomic.make 0;
    evictions = Atomic.make 0;
    read_bytes = Atomic.make 0;
    written_bytes = Atomic.make 0;
    retries = Atomic.make 0;
    errors = Atomic.make 0;
    consec_failures = Atomic.make 0;
    is_degraded = Atomic.make false;
  }

let open_default () = open_dir (default_dir ())

let entry_path t key =
  let hex = Key.hex key in
  Filename.concat (Filename.concat (objects_dir t) (String.sub hex 0 2)) (hex ^ ".vt")

(* ------------------------------------------------------------------ *)
(* Retry / degradation policy                                          *)
(* ------------------------------------------------------------------ *)

(* Transient faults (interrupted reads, flaky writes, lock hiccups) are
   retried a bounded number of times with exponential backoff
   ([Rng.backoff_s]); the jitter is seeded from a global counter, not
   the wall clock, so concurrent retriers decorrelate and replay stays
   deterministic.  ENOSPC is persistent: no retry, the handle degrades
   immediately.  After [degrade_after] consecutive exhausted-retry failures the handle also
   degrades: loads report misses, saves become no-ops, the pipeline
   recomputes and completes without the accelerator. *)
let retry_attempts = 3
let degrade_after = 5
let backoff_salt = Atomic.make 0

let degrade t reason =
  if not (Atomic.exchange t.is_degraded true) then begin
    Obs.Counter.incr c_degraded;
    Log.warn (fun m ->
        m "store degraded to no-store mode (%s); the pipeline continues uncached" reason)
  end

let record_failure (t : t) error =
  Atomic.incr t.errors;
  Obs.Counter.incr c_error;
  match error with
  | No_space { site } -> degrade t (Printf.sprintf "%s: no space left on device" site)
  | Io { site; reason } ->
    let n = 1 + Atomic.fetch_and_add t.consec_failures 1 in
    Log.warn (fun m -> m "store %s failed after %d attempts: %s" site retry_attempts reason);
    if n >= degrade_after then
      degrade t (Printf.sprintf "%d consecutive I/O failures, last at %s" n site)
  | Locked | Disabled -> ()

let record_success (t : t) = Atomic.set t.consec_failures 0

(* Classifies one failed attempt.  [`Reraise] is for exceptions that do
   not look like I/O at all — caller bugs must not be eaten here. *)
let classify = function
  | Unix.Unix_error (Unix.ENOSPC, _, _) | Fault.Injected { point = Fault.Enospc; _ } ->
    `No_space
  | Fault.Injected { point; site; seq } ->
    `Transient
      (Printf.sprintf "injected %s fault at %s (occurrence %d)"
         (Fault.point_to_string point) site seq)
  | Unix.Unix_error (err, fn, _) ->
    `Transient (Printf.sprintf "%s in %s" (Unix.error_message err) fn)
  | Sys_error reason -> `Transient reason
  | _ -> `Reraise

let with_retries (t : t) ~site f =
  let rec go attempt =
    match f () with
    | v -> Ok v
    | exception exn -> (
      match classify exn with
      | `Reraise -> Printexc.raise_with_backtrace exn (Printexc.get_raw_backtrace ())
      | `No_space -> Error (No_space { site })
      | `Transient reason ->
        if attempt + 1 >= retry_attempts then Error (Io { site; reason })
        else begin
          Atomic.incr t.retries;
          Obs.Counter.incr c_retry;
          Log.debug (fun m ->
              m "%s attempt %d failed (%s); retrying" site (attempt + 1) reason);
          let seed = Atomic.fetch_and_add backoff_salt 1 in
          Unix.sleepf (Vartune_util.Rng.backoff_s ~seed ~attempt ~floor:0.0);
          go (attempt + 1)
        end)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Entry framing                                                       *)
(* ------------------------------------------------------------------ *)

let magic = "VTSTOR01"

(* 63 bits of FNV-1a are plenty for an integrity check, and storing the
   checksum through the codec's int path keeps the framing uniform. *)
let checksum payload = Int64.to_int (Key.fnv1a64 0xcbf29ce484222325L payload)

let frame key payload =
  let b = Buffer.create (String.length payload + 256) in
  Buffer.add_string b magic;
  Codec.w_int b Codec.version;
  Codec.w_string b (Key.id key);
  Codec.w_int b (checksum payload);
  Codec.w_string b payload;
  Buffer.contents b

(* Splits an entry file back into its payload, verifying every frame
   field.  Raises Codec.Corrupt on any inconsistency. *)
let unframe key contents =
  let mlen = String.length magic in
  if String.length contents < mlen then raise (Codec.Corrupt "entry shorter than magic");
  if String.sub contents 0 mlen <> magic then raise (Codec.Corrupt "bad magic");
  let r = Codec.reader (String.sub contents mlen (String.length contents - mlen)) in
  let version = Codec.r_int r in
  if version <> Codec.version then
    raise (Codec.Corrupt (Printf.sprintf "codec version %d (want %d)" version Codec.version));
  let stored_id = Codec.r_string r in
  let sum = Codec.r_int r in
  let payload = Codec.r_string r in
  if not (Codec.at_end r) then raise (Codec.Corrupt "trailing bytes after payload");
  if stored_id <> Key.id key then
    raise (Codec.Corrupt "recipe mismatch (digest collision?)");
  if sum <> checksum payload then raise (Codec.Corrupt "payload checksum mismatch");
  payload

(* ------------------------------------------------------------------ *)
(* Load                                                                *)
(* ------------------------------------------------------------------ *)

let evict (t : t) path reason =
  Atomic.incr t.evictions;
  Obs.Counter.incr c_evict;
  Log.warn (fun m -> m "evicting corrupt store entry %s (%s)" path reason);
  remove_quietly path

(* One read attempt.  ENOENT is a miss, not a failure; everything else
   raises and is classified by [with_retries]. *)
let read_entry path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> None
  | fd ->
    Fun.protect
      ~finally:(fun () -> close_quietly fd)
      (fun () ->
        Fault.check Fault.Read ~site:"store.load.read";
        let len = (Unix.fstat fd).Unix.st_size in
        let buf = Bytes.create len in
        let rec fill off =
          if off < len then begin
            let n = Unix.read fd buf off (len - off) in
            if n = 0 then raise (Unix.Unix_error (Unix.EIO, "read", path));
            fill (off + n)
          end
        in
        fill 0;
        Some (Bytes.unsafe_to_string buf))

let load_result (t : t) key decode =
  Obs.span "store.load" ~attrs:(fun () -> [ ("key", Key.id key) ]) @@ fun () ->
  if Atomic.get t.is_degraded then Error Disabled
  else begin
    let path = entry_path t key in
    let miss () =
      Atomic.incr t.misses;
      Obs.Counter.incr c_miss;
      Ok None
    in
    match with_retries t ~site:"store.load" (fun () -> read_entry path) with
    | Error e ->
      record_failure t e;
      Error e
    | Ok None -> miss ()
    | Ok (Some contents) -> (
      record_success t;
      match decode (Codec.reader (unframe key contents)) with
      | value ->
        Atomic.incr t.hits;
        ignore (Atomic.fetch_and_add t.read_bytes (String.length contents));
        Obs.Counter.incr c_hit;
        Obs.Counter.add c_read_bytes (String.length contents);
        Ok (Some value)
      | exception Codec.Corrupt reason ->
        evict t path reason;
        miss ()
      | exception (Invalid_argument reason | Failure reason) ->
        evict t path reason;
        miss ()
      | exception Not_found ->
        evict t path "decoder raised Not_found";
        miss ()
      | exception exn ->
        (* a decoder blowing up on adversarial bytes is still corruption;
           it must never escape as a crash *)
        evict t path (Printf.sprintf "decoder raised %s" (Printexc.to_string exn));
        miss ())
  end

let load (t : t) key decode =
  match load_result t key decode with Ok v -> v | Error _ -> None

(* ------------------------------------------------------------------ *)
(* Save                                                                *)
(* ------------------------------------------------------------------ *)

(* Per-entry advisory lock.  Entries are content-addressed — two
   concurrent writers of the same key land identical bytes — so the
   lock only avoids duplicated write work; correctness comes from the
   atomic rename.  A lock older than [stale_age_s] belongs to a crashed
   writer and is broken. *)
let try_lock path =
  Fault.check Fault.Lock ~site:"store.save.lock";
  let lock = path ^ ".lock" in
  let acquire () =
    match Unix.openfile lock [ Unix.O_CREAT; Unix.O_EXCL; Unix.O_WRONLY ] 0o644 with
    | fd ->
      Unix.close fd;
      true
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> false
  in
  if acquire () then Some lock
  else
    match file_age lock with
    | Some age when age > stale_age_s ->
      Log.warn (fun m -> m "breaking stale store lock %s" lock);
      remove_quietly lock;
      if acquire () then Some lock else None
    | Some _ -> None
    | None ->
      (* the competing writer just finished; take over *)
      if acquire () then Some lock else None

let temp_counter = Atomic.make 0

(* One landing attempt: write a temp file, fsync, atomically rename.
   Cleans its temp file and raises on failure.  An injected
   partial-write lands a truncated entry *silently* — exercising the
   reader-side promise that corruption is evicted, never served. *)
let land_entry path framed =
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Atomic.fetch_and_add temp_counter 1)
  in
  match
    let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    Fun.protect
      ~finally:(fun () -> close_quietly fd)
      (fun () ->
        Fault.check Fault.Enospc ~site:"store.save.write";
        Fault.check Fault.Write ~site:"store.save.write";
        let len =
          if Fault.fires Fault.Partial_write ~site:"store.save.write" then
            String.length framed / 2
          else String.length framed
        in
        let rec put off =
          if off < len then put (off + Unix.write_substring fd framed off (len - off))
        in
        put 0;
        Fault.check Fault.Fsync ~site:"store.save.fsync";
        Unix.fsync fd;
        len)
  with
  | len ->
    (match Fault.check Fault.Rename ~site:"store.save.rename"; Unix.rename tmp path with
    | () -> len
    | exception exn ->
      remove_quietly tmp;
      raise exn)
  | exception exn ->
    remove_quietly tmp;
    raise exn

let save_result (t : t) key encode =
  Obs.span "store.save" ~attrs:(fun () -> [ ("key", Key.id key) ]) @@ fun () ->
  if Atomic.get t.is_degraded then Error Disabled
  else begin
    let path = entry_path t key in
    let outcome =
      match
        with_retries t ~site:"store.save.lock" (fun () ->
            mkdir_p (Filename.dirname path);
            try_lock path)
      with
      | Error e -> Error e
      | Ok None -> Error Locked
      | Ok (Some lock) ->
        (* everything between acquisition and release — including the
           caller's [encode] — is under [Fun.protect]: a writer dying in
           its critical section cannot leave a permanent lock *)
        Fun.protect
          ~finally:(fun () -> remove_quietly lock)
          (fun () ->
            let framed =
              let payload = Buffer.create 65536 in
              encode payload;
              frame key (Buffer.contents payload)
            in
            with_retries t ~site:"store.save" (fun () -> land_entry path framed))
    in
    match outcome with
    | Ok written ->
      record_success t;
      Atomic.incr t.writes;
      ignore (Atomic.fetch_and_add t.written_bytes written);
      Obs.Counter.incr c_write;
      Obs.Counter.add c_write_bytes written;
      Log.debug (fun m -> m "stored %s (%d bytes)" path written);
      Ok ()
    | Error Locked ->
      Log.debug (fun m -> m "store entry %s locked by a live writer; skipping" path);
      Error Locked
    | Error e ->
      record_failure t e;
      Error e
  end

let save (t : t) key encode =
  match save_result t key encode with
  | Ok () | Error (Locked | Disabled | Io _ | No_space _) -> ()

(* ------------------------------------------------------------------ *)
(* Maintenance                                                         *)
(* ------------------------------------------------------------------ *)

let fold_entries t f init =
  Array.fold_left
    (fun acc sub ->
      let subdir = Filename.concat (objects_dir t) sub in
      if not (try Sys.is_directory subdir with Sys_error _ -> false) then acc
      else
        Array.fold_left
          (fun acc name ->
            if Filename.check_suffix name ".vt" then f acc (Filename.concat subdir name)
            else acc)
          acc (readdir_quietly subdir))
    init
    (readdir_quietly (objects_dir t))

let entry_count t = fold_entries t (fun acc _ -> acc + 1) 0

let total_bytes t =
  fold_entries t
    (fun acc path ->
      match Unix.stat path with
      | { Unix.st_size; _ } -> acc + st_size
      | exception Unix.Unix_error _ -> acc)
    0

let wipe t = fold_entries t (fun () path -> remove_quietly path) ()
