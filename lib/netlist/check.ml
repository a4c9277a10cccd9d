module Cell = Vartune_liberty.Cell
module Pin = Vartune_liberty.Pin

exception Combinational_loop of string

let validate nl =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let pi_set = Hashtbl.create 16 in
  List.iter (fun nid -> Hashtbl.replace pi_set nid ()) (Netlist.primary_inputs nl);
  Option.iter (fun c -> Hashtbl.replace pi_set c ()) (Netlist.clock nl);
  Netlist.iter_nets nl ~f:(fun n ->
      if n.Netlist.sinks <> [] && n.driver = None && not (Hashtbl.mem pi_set n.net_id) then
        err "net %s has sinks but no driver" n.net_name);
  Netlist.iter_instances nl ~f:(fun inst ->
      let cell = inst.Netlist.cell in
      Array.iteri
        (fun p nid ->
          if nid < 0 then
            err "instance %s: pin %s of %s unconnected" inst.inst_name cell.pin_array.(p).Pin.name
              cell.Cell.name)
        inst.conns;
      match (Cell.is_sequential cell, cell.clock_pin, Netlist.clock nl) with
      | true, Some ck, Some clock_net ->
        if cell.clock_index < 0 || inst.conns.(cell.clock_index) <> clock_net then
          err "instance %s: clock pin %s not on the clock net" inst.inst_name ck
      | true, Some _, None -> err "design has sequential cells but no clock net"
      | true, None, _ -> err "sequential cell %s lacks a clock pin" cell.Cell.name
      | false, _, _ -> ());
  match !errors with [] -> Ok () | es -> Error (List.rev es)

let validate_exn nl =
  match validate nl with
  | Ok () -> ()
  | Error es -> failwith (String.concat "\n" es)

(* Kahn's algorithm over flat arrays; the order array doubles as the
   FIFO queue.  Edges run from a net's driver to its combinational
   sinks; sequential sinks take data without constraining order.
   [indegree] is -1 on tombstones. *)
let topological_order nl =
  let n_slots = Netlist.instance_slots nl in
  let indegree = Array.make n_slots (-1) in
  let comb = Array.make n_slots false in
  Netlist.iter_instances nl ~f:(fun inst ->
      indegree.(inst.inst_id) <- 0;
      comb.(inst.inst_id) <- not (Cell.is_sequential inst.Netlist.cell));
  Netlist.iter_nets nl ~f:(fun net ->
      if net.Netlist.driver <> None then
        List.iter
          (fun (r : Netlist.pin_ref) -> if comb.(r.inst) then indegree.(r.inst) <- indegree.(r.inst) + 1)
          net.sinks);
  let order = Array.make (Netlist.instance_count nl) 0 in
  let tail = ref 0 in
  let push id = order.(!tail) <- id; incr tail in
  Array.iteri (fun id d -> if d = 0 then push id) indegree;
  let head = ref 0 in
  while !head < !tail do
    let inst = Netlist.instance nl order.(!head) in
    incr head;
    Netlist.iter_outputs inst ~f:(fun _ nid ->
        List.iter
          (fun (r : Netlist.pin_ref) ->
            if comb.(r.inst) then begin
              indegree.(r.inst) <- indegree.(r.inst) - 1;
              if indegree.(r.inst) = 0 then push r.inst
            end)
          (Netlist.net nl nid).sinks)
  done;
  if !tail <> Array.length order then
    raise (Combinational_loop (Printf.sprintf "%d instances unreached" (Array.length order - !tail)));
  order

let logic_depths nl =
  let order = topological_order nl in
  let depth = Array.make (Netlist.instance_slots nl) 0 in
  Array.iter
    (fun id ->
      let inst = Netlist.instance nl id in
      if not (Cell.is_sequential inst.Netlist.cell) then begin
        let d = ref 0 in
        Netlist.iter_inputs inst ~f:(fun _ nid ->
            match (Netlist.net nl nid).driver with
            | None -> ()
            | Some r -> d := max !d depth.(r.inst));
        depth.(id) <- !d + 1
      end)
    order;
  Array.to_list (Array.map (fun id -> (id, depth.(id))) order)
