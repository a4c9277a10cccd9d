module Request = Vartune_flow.Request
module Response = Vartune_flow.Response

type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with exn ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise exn);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send_line t line =
  output_string t.oc line;
  output_char t.oc '\n';
  flush t.oc

let request ?id ?priority ?deadline_s t req =
  send_line t (Request.to_line ?id ?priority ?deadline_s req);
  Response.of_line (input_line t.ic)

let get t endpoint =
  send_line t ("GET " ^ endpoint);
  input_line t.ic

(* ------------------------------------------------------------------ *)
(* Retry / backoff discipline                                          *)
(* ------------------------------------------------------------------ *)

(* The store's ladder ([Rng.backoff_s]): a bounded number of retries
   with exponential backoff and a jitter derived from the policy seed
   and the attempt index, never the wall clock.  The daemon's
   [retry_after_s] hint is honoured as a floor: the client never comes
   back sooner than the server asked. *)

type retry_policy = { attempts : int; seed : int }

let default_policy = { attempts = 3; seed = 0 }

(* A response is retryable exactly when the daemon said so: code 75
   with a [retry_after_s] hint (an overload shed).  Drain 75s carry a
   hint too, but by then the socket is going away, so the resend raises
   a transport error the caller already handles. *)
let request_retrying ?id ?priority ?deadline_s ?(policy = default_policy) t req =
  let rec go attempt retries =
    match request ?id ?priority ?deadline_s t req with
    | Error _ as e -> (e, retries)
    | Ok resp
      when resp.Response.code = 75
           && resp.Response.retry_after_s <> None
           && attempt < policy.attempts ->
      Unix.sleepf
        (Vartune_util.Rng.backoff_s ~seed:policy.seed ~attempt
           ~floor:(Option.value resp.Response.retry_after_s ~default:0.0));
      go (attempt + 1) (retries + 1)
    | Ok _ as ok -> (ok, retries)
  in
  go 0 0
