module Netlist = Vartune_netlist.Netlist
module Check = Vartune_netlist.Check
module Cell = Vartune_liberty.Cell

let row_height = 1.4 (* µm, fixed by the row architecture *)

type placed = { inst : Netlist.inst_id; width : float; mutable x : float; mutable row : int }

type t = {
  by_inst : (Netlist.inst_id, placed) Hashtbl.t;
  mutable die_w : float;
  die_h : float;
  rows : int;
}

let cell_width (cell : Cell.t) = Float.max 0.4 (cell.Cell.area /. row_height)

(* pack a row's cells left to right in their current x order *)
let legalize_row die_w cells =
  let sorted = List.stable_sort (fun a b -> compare a.x b.x) cells in
  let total = List.fold_left (fun acc c -> acc +. c.width) 0.0 sorted in
  let gap =
    let n = List.length sorted in
    if n <= 1 then 0.0 else Float.max 0.0 ((die_w -. total) /. float_of_int (n + 1))
  in
  let cursor = ref gap in
  List.iter
    (fun c ->
      c.x <- !cursor +. (c.width /. 2.0);
      cursor := !cursor +. c.width +. gap)
    sorted

let place ?(utilization = 0.7) ?(passes = 4) nl =
  if utilization <= 0.0 || utilization > 1.0 then invalid_arg "Placement.place: utilization";
  let total_area = Netlist.total_area nl in
  let die_area = Float.max 1.0 (total_area /. utilization) in
  let die_w = sqrt die_area in
  let rows = max 1 (int_of_float (Float.ceil (die_w /. row_height))) in
  let die_h = float_of_int rows *. row_height in
  let by_inst = Hashtbl.create 1024 in
  (* initial order: topological, so connected cells land near each other *)
  let order = Check.topological_order nl in
  let row_fill = Array.make rows 0.0 in
  let current_row = ref 0 in
  Array.iter
    (fun inst_id ->
      let inst = Netlist.instance nl inst_id in
      let width = cell_width inst.Netlist.cell in
      (* snake-fill rows *)
      if row_fill.(!current_row) +. width > die_w && !current_row < rows - 1 then incr current_row;
      let row = !current_row in
      let x = row_fill.(row) +. (width /. 2.0) in
      row_fill.(row) <- row_fill.(row) +. width;
      Hashtbl.replace by_inst inst_id { inst = inst_id; width; x; row })
    order;
  let t = { by_inst; die_w; die_h; rows } in
  (* force-directed refinement: move every cell toward the centroid of
     its neighbours, then re-legalise each row *)
  let neighbours inst_id =
    let inst = Netlist.instance nl inst_id in
    let clock = Netlist.clock nl in
    let acc = ref [] in
    let visit _ nid =
      if Some nid <> clock then begin
        let net = Netlist.net nl nid in
        (match net.Netlist.driver with
        | Some r when r.Netlist.inst <> inst_id -> acc := r.Netlist.inst :: !acc
        | _ -> ());
        List.iter
          (fun (r : Netlist.pin_ref) -> if r.inst <> inst_id then acc := r.inst :: !acc)
          net.Netlist.sinks
      end
    in
    Netlist.iter_inputs inst ~f:visit;
    Netlist.iter_outputs inst ~f:visit;
    !acc
  in
  for _ = 1 to passes do
    (* desired position: centroid of neighbours (x and y) *)
    let desired = Hashtbl.create (Hashtbl.length by_inst) in
    Hashtbl.iter
      (fun inst_id p ->
        let cx, cy =
          match neighbours inst_id with
          | [] -> (p.x, (float_of_int p.row +. 0.5) *. row_height)
          | ns ->
            let sx = ref 0.0 and sy = ref 0.0 and n = ref 0 in
            List.iter
              (fun other ->
                match Hashtbl.find_opt by_inst other with
                | Some q ->
                  sx := !sx +. q.x;
                  sy := !sy +. ((float_of_int q.row +. 0.5) *. row_height);
                  incr n
                | None -> ())
              ns;
            if !n = 0 then (p.x, (float_of_int p.row +. 0.5) *. row_height)
            else (!sx /. float_of_int !n, !sy /. float_of_int !n)
        in
        Hashtbl.replace desired inst_id (cx, cy))
      by_inst;
    (* order-preserving row binning: sort by desired y, fill rows up to
       the die width so no row can collapse-overflow *)
    let all = Hashtbl.fold (fun inst_id p acc -> (inst_id, p) :: acc) by_inst [] in
    let sorted_y =
      List.sort
        (fun (a, _) (b, _) ->
          let _, ya = Hashtbl.find desired a and _, yb = Hashtbl.find desired b in
          if ya <> yb then compare ya yb else compare a b)
        all
    in
    let fill = ref 0.0 and row = ref 0 in
    List.iter
      (fun (inst_id, p) ->
        if !fill +. p.width > die_w && !row < rows - 1 then begin
          incr row;
          fill := 0.0
        end;
        p.row <- !row;
        fill := !fill +. p.width;
        let cx, _ = Hashtbl.find desired inst_id in
        p.x <- cx)
      sorted_y;
    let buckets = Array.make rows [] in
    Hashtbl.iter (fun _ p -> buckets.(p.row) <- p :: buckets.(p.row)) by_inst;
    Array.iter (legalize_row die_w) buckets
  done;
  (* overflowing rows (rounding, rebalance tail) stretch the die *)
  let extent = ref t.die_w in
  Hashtbl.iter (fun _ p -> extent := Float.max !extent (p.x +. (p.width /. 2.0))) by_inst;
  t.die_w <- !extent;
  t

let position t inst_id =
  let p = Hashtbl.find t.by_inst inst_id in
  (p.x, (float_of_int p.row +. 0.5) *. row_height)

let die t = (t.die_w, t.die_h)

let hpwl t nl nid =
  let net = Netlist.net nl nid in
  let points =
    List.filter_map
      (fun inst_id ->
        match Hashtbl.find_opt t.by_inst inst_id with
        | Some p -> Some (p.x, (float_of_int p.row +. 0.5) *. row_height)
        | None -> None)
      ((match net.Netlist.driver with Some r -> [ r.Netlist.inst ] | None -> [])
      @ List.map (fun (r : Netlist.pin_ref) -> r.inst) net.Netlist.sinks)
  in
  match points with
  | [] | [ _ ] -> 0.0
  | (x0, y0) :: rest ->
    let min_x, max_x, min_y, max_y =
      List.fold_left
        (fun (lx, hx, ly, hy) (x, y) ->
          (Float.min lx x, Float.max hx x, Float.min ly y, Float.max hy y))
        (x0, x0, y0, y0) rest
    in
    max_x -. min_x +. (max_y -. min_y)

let total_wirelength t nl =
  let acc = ref 0.0 in
  Netlist.iter_nets nl ~f:(fun net ->
      if Some net.Netlist.net_id <> Netlist.clock nl then
        acc := !acc +. hpwl t nl net.Netlist.net_id);
  !acc

let wire_caps ?(cap_per_um = 0.00018) t nl nid = cap_per_um *. hpwl t nl nid

let overlap_free t nl =
  ignore nl;
  let buckets = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ p ->
      let existing = Option.value (Hashtbl.find_opt buckets p.row) ~default:[] in
      Hashtbl.replace buckets p.row (p :: existing))
    t.by_inst;
  Hashtbl.fold
    (fun _ cells ok ->
      ok
      &&
      let sorted = List.sort (fun a b -> Float.compare a.x b.x) cells in
      let rec check = function
        | a :: (b :: _ as rest) ->
          (a.x +. (a.width /. 2.0)) <= (b.x -. (b.width /. 2.0)) +. 1e-6 && check rest
        | [ _ ] | [] -> true
      in
      check sorted)
    buckets true
