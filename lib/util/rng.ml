type t = { mutable state : int64; mutable spare : float option }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = Int64.of_int seed; spare = None }

let copy t = { state = t.state; spare = t.spare }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let seed = bits64 t in
  { state = mix64 seed; spare = None }

(* Closed form of the k-th [split]: after k prior splits the state has
   advanced k times, so split number k (0-based) observes
   state + (k+1) * gamma and returns mix64 (mix64 of that).  Keeping this
   in lock-step with [split] is what lets parallel consumers derive the
   i-th stream in O(1) without touching a shared generator. *)
let stream t k =
  if k < 0 then invalid_arg "Rng.stream: negative index";
  let s = Int64.add t.state (Int64.mul (Int64.of_int (k + 1)) golden_gamma) in
  { state = mix64 (mix64 s); spare = None }

(* Top 53 bits of the 64-bit output, scaled into [0,1). *)
let uniform t =
  let u = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float u *. 0x1.0p-53

let float t bound = uniform t *. bound

let int t bound =
  assert (bound > 0);
  (* Rejection-free for our purposes: modulo bias is negligible with 64-bit
     outputs and the small bounds used in this project. *)
  Int64.to_int (Int64.rem (Int64.shift_right_logical (bits64 t) 1) (Int64.of_int bound))

let normal t =
  match t.spare with
  | Some v ->
    t.spare <- None;
    v
  | None ->
    let rec draw () =
      let u = (2.0 *. uniform t) -. 1.0 in
      let v = (2.0 *. uniform t) -. 1.0 in
      let s = (u *. u) +. (v *. v) in
      if s >= 1.0 || s = 0.0 then draw () else (u, v, s)
    in
    let u, v, s = draw () in
    let scale = sqrt (-2.0 *. log s /. s) in
    t.spare <- Some (v *. scale);
    u *. scale

let gaussian t ~mean ~sigma = mean +. (sigma *. normal t)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let backoff_base_s = 0.0005

let backoff_s ~seed ~attempt ~floor =
  let jitter = uniform (stream (create seed) attempt) in
  Float.max floor (backoff_base_s *. (2.0 ** float_of_int attempt) *. (1.0 +. jitter))
