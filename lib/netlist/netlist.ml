module Vec = Vartune_util.Vec
module Cell = Vartune_liberty.Cell
module Pin = Vartune_liberty.Pin

type net_id = int
type inst_id = int
type pin_ref = { inst : inst_id; pin : int }

type net = {
  net_id : net_id;
  net_name : string;
  mutable driver : pin_ref option;
  mutable sinks : pin_ref list;
}

type instance = {
  inst_id : inst_id;
  inst_name : string;
  mutable cell : Cell.t;
  conns : net_id array;
}

type t = {
  design_name : string;
  nets : net Vec.t;
  instances : instance option Vec.t;
  mutable live_instances : int;
  mutable pis : net_id list;
  mutable pos : net_id list;
  mutable clock_net : net_id option;
  mutable name_counter : int;
}

let create ~name =
  {
    design_name = name;
    nets = Vec.create ();
    instances = Vec.create ();
    live_instances = 0;
    pis = [];
    pos = [];
    clock_net = None;
    name_counter = 0;
  }

let name t = t.design_name

let add_net t ?net_name () =
  let net_id = Vec.length t.nets in
  let net_name = Option.value net_name ~default:(Printf.sprintf "n%d" net_id) in
  ignore (Vec.push t.nets { net_id; net_name; driver = None; sinks = [] });
  net_id

let net t id = Vec.get t.nets id
let net_count t = Vec.length t.nets
let is_output (cell : Cell.t) p = Pin.is_output cell.pin_array.(p)

(* The name boundary: place each named connection at its pin index,
   checking the pin exists on the expected side and is listed once. *)
let conns_of (cell : Cell.t) ~inputs ~outputs =
  let conns = Array.make (Array.length cell.pin_array) (-1) in
  let place out (pin, nid) =
    match Cell.pin_index cell pin with
    | exception Not_found ->
      invalid_arg (Printf.sprintf "Netlist: cell %s has no pin %s" cell.name pin)
    | p when is_output cell p <> out || conns.(p) >= 0 ->
      invalid_arg (Printf.sprintf "Netlist: pin %s of %s misplaced or repeated" pin cell.name)
    | p ->
      conns.(p) <- nid;
      p
  in
  let ins = List.map (place false) inputs in
  (conns, ins, List.map (place true) outputs)

let add_instance t ~inst_name ~cell ~inputs ~outputs =
  let inst_id = Vec.length t.instances in
  let conns, ins, outs = conns_of cell ~inputs ~outputs in
  List.iter
    (fun pin ->
      let n = net t conns.(pin) in
      n.sinks <- { inst = inst_id; pin } :: n.sinks)
    ins;
  List.iter
    (fun pin ->
      let n = net t conns.(pin) in
      if n.driver <> None then
        invalid_arg (Printf.sprintf "Netlist: net %s already driven" n.net_name);
      n.driver <- Some { inst = inst_id; pin })
    outs;
  ignore (Vec.push t.instances (Some { inst_id; inst_name; cell; conns }));
  t.live_instances <- t.live_instances + 1;
  inst_id

let instance_opt t id =
  if id < 0 || id >= Vec.length t.instances then None else Vec.get t.instances id

let instance t id =
  match instance_opt t id with
  | Some inst -> inst
  | None -> invalid_arg (Printf.sprintf "Netlist: no instance %d" id)

let instance_slots t = Vec.length t.instances

let pin_net inst name =
  match inst.conns.(Cell.pin_index inst.cell name) with -1 -> raise Not_found | nid -> nid

let iter_side out inst ~f =
  Array.iteri (fun p nid -> if nid >= 0 && is_output inst.cell p = out then f p nid) inst.conns

let iter_inputs = iter_side false
let iter_outputs = iter_side true

let connections inst =
  let named out =
    let acc = ref [] in
    iter_side out inst ~f:(fun p nid -> acc := (inst.cell.Cell.pin_array.(p).Pin.name, nid) :: !acc);
    List.rev !acc
  in
  (named false, named true)

let remove_instance t id =
  let inst = instance t id in
  iter_inputs inst ~f:(fun pin nid ->
      let n = net t nid in
      n.sinks <- List.filter (fun r -> not (r.inst = id && r.pin = pin)) n.sinks);
  iter_outputs inst ~f:(fun _ nid -> (net t nid).driver <- None);
  Vec.set t.instances id None;
  t.live_instances <- t.live_instances - 1

let set_cell t id (cell : Cell.t) =
  let inst = instance t id in
  let same (p : Pin.t) (q : Pin.t) = p.name = q.name && p.direction = q.direction in
  let old = inst.cell.pin_array in
  if Array.length cell.pin_array <> Array.length old || not (Array.for_all2 same cell.pin_array old)
  then invalid_arg (Printf.sprintf "Netlist: cell %s does not fit %s" cell.name inst.inst_name);
  inst.cell <- cell

let rewire_input t ~inst:id ~pin nid =
  let inst = instance t id in
  if pin < 0 || pin >= Array.length inst.conns || inst.conns.(pin) < 0 || is_output inst.cell pin
  then invalid_arg (Printf.sprintf "Netlist: instance %s has no input pin %d" inst.inst_name pin);
  let old_net = net t inst.conns.(pin) in
  old_net.sinks <- List.filter (fun r -> not (r.inst = id && r.pin = pin)) old_net.sinks;
  let new_net = net t nid in
  new_net.sinks <- { inst = id; pin } :: new_net.sinks;
  inst.conns.(pin) <- nid

let iter_instances t ~f = Vec.iter (function Some inst -> f inst | None -> ()) t.instances

let fold_instances t ~init ~f =
  Vec.fold (fun acc -> function Some inst -> f acc inst | None -> acc) init t.instances

let iter_nets t ~f = Vec.iter f t.nets
let instance_count t = t.live_instances
let mark_primary_input t nid = t.pis <- nid :: t.pis
let mark_primary_output t nid = t.pos <- nid :: t.pos
let set_clock t nid = t.clock_net <- Some nid
let primary_inputs t = List.rev t.pis
let primary_outputs t = List.rev t.pos
let clock t = t.clock_net

let total_area t = fold_instances t ~init:0.0 ~f:(fun acc inst -> acc +. inst.cell.Cell.area)

let usage key_of t =
  let counts = Hashtbl.create 64 in
  iter_instances t ~f:(fun inst ->
      let key = key_of inst.cell in
      Hashtbl.replace counts key (1 + Option.value (Hashtbl.find_opt counts key) ~default:0));
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
  |> List.sort (fun (na, ca) (nb, cb) ->
         if ca <> cb then compare cb ca else String.compare na nb)

let cell_usage t = usage (fun (c : Cell.t) -> c.name) t
let family_usage t = usage (fun (c : Cell.t) -> c.family) t

let fresh_name t ~prefix =
  t.name_counter <- t.name_counter + 1;
  Printf.sprintf "%s_%d" prefix t.name_counter

(* -------------------------------------------------------------------- *)
(* Faithful snapshots                                                    *)
(* -------------------------------------------------------------------- *)

type repr = {
  repr_name : string;
  repr_nets : (string * (inst_id * string) option * (inst_id * string) list) array;
  repr_instances :
    (string * Cell.t * (string * net_id) list * (string * net_id) list) option array;
  repr_pis : net_id list;
  repr_pos : net_id list;
  repr_clock : net_id option;
  repr_name_counter : int;
}

let export t =
  let named r =
    let inst = instance t r.inst in
    (r.inst, inst.cell.Cell.pin_array.(r.pin).Pin.name)
  in
  {
    repr_name = t.design_name;
    repr_nets =
      Array.map
        (fun n -> (n.net_name, Option.map named n.driver, List.map named n.sinks))
        (Vec.to_array t.nets);
    repr_instances =
      Array.map
        (Option.map (fun i ->
             let inputs, outputs = connections i in
             (i.inst_name, i.cell, inputs, outputs)))
        (Vec.to_array t.instances);
    (* internal pi/po lists are reversed; snapshots use user order *)
    repr_pis = List.rev t.pis;
    repr_pos = List.rev t.pos;
    repr_clock = t.clock_net;
    repr_name_counter = t.name_counter;
  }

let import repr =
  let bad fmt = Printf.ksprintf invalid_arg ("Netlist.import: " ^^ fmt) in
  let n_nets = Array.length repr.repr_nets in
  let check_net nid ctx = if nid < 0 || nid >= n_nets then bad "net %d out of range (%s)" nid ctx in
  let live = ref 0 in
  let slots =
    Array.mapi
      (fun inst_id ->
        Option.map (fun (inst_name, cell, inputs, outputs) ->
            incr live;
            List.iter (fun (_, nid) -> check_net nid "instance input") inputs;
            List.iter (fun (_, nid) -> check_net nid "instance output") outputs;
            let conns, _, _ = conns_of cell ~inputs ~outputs in
            { inst_id; inst_name; cell; conns }))
      repr.repr_instances
  in
  (* net endpoints must agree with the instance connections *)
  let pin_ref nid ctx (inst, pin_name) =
    if inst < 0 || inst >= Array.length slots then
      bad "instance %d out of range (%s of net %d)" inst ctx nid;
    match slots.(inst) with
    | None -> bad "net %d %s references tombstoned instance %d" nid ctx inst
    | Some i ->
      let pin =
        try Cell.pin_index i.cell pin_name
        with Not_found -> bad "instance %d cell %s has no pin %s" inst i.cell.Cell.name pin_name
      in
      if i.conns.(pin) <> nid || is_output i.cell pin <> (ctx = "driver") then
        bad "net %d %s disagrees with instance %d pin %s" nid ctx inst pin_name;
      { inst; pin }
  in
  let nets = Vec.create () in
  Array.iteri
    (fun net_id (net_name, driver, sinks) ->
      let driver = Option.map (pin_ref net_id "driver") driver in
      let sinks = List.map (pin_ref net_id "sink") sinks in
      ignore (Vec.push nets { net_id; net_name; driver; sinks }))
    repr.repr_nets;
  List.iter (fun nid -> check_net nid "primary input") repr.repr_pis;
  List.iter (fun nid -> check_net nid "primary output") repr.repr_pos;
  Option.iter (fun nid -> check_net nid "clock") repr.repr_clock;
  let instances = Vec.create () in
  Array.iter (fun slot -> ignore (Vec.push instances slot)) slots;
  {
    design_name = repr.repr_name;
    nets;
    instances;
    live_instances = !live;
    pis = List.rev repr.repr_pis;
    pos = List.rev repr.repr_pos;
    clock_net = repr.repr_clock;
    name_counter = repr.repr_name_counter;
  }
