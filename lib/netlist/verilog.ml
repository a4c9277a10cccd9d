module Cell = Vartune_liberty.Cell
module Library = Vartune_liberty.Library

exception Parse_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Parse_error s)) fmt

(* Net names may contain characters Verilog identifiers forbid ('[', ']');
   escaped identifiers (backslash ... space) cover them. *)
let is_simple_ident s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' -> true | _ -> false)
       s

let mangle s = if is_simple_ident s then s else "\\" ^ s ^ " "

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

let to_string nl =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let net_name nid = mangle (Netlist.net nl nid).Netlist.net_name in
  let pis = Netlist.primary_inputs nl in
  let pos = Netlist.primary_outputs nl in
  let clock = Netlist.clock nl in
  let ports =
    (match clock with Some c -> [ ("input", c) ] | None -> [])
    @ List.map (fun nid -> ("input", nid)) pis
    @ List.map (fun nid -> ("output", nid)) pos
  in
  add "module %s (\n" (mangle (Netlist.name nl));
  List.iteri
    (fun i (dir, nid) ->
      add "  %s %s%s\n" dir (net_name nid) (if i = List.length ports - 1 then "" else ","))
    ports;
  add ");\n";
  let port_set = Hashtbl.create 64 in
  List.iter (fun (_, nid) -> Hashtbl.replace port_set nid ()) ports;
  Netlist.iter_nets nl ~f:(fun net ->
      let nid = net.Netlist.net_id in
      if (not (Hashtbl.mem port_set nid)) && (net.Netlist.driver <> None || net.sinks <> [])
      then add "  wire %s;\n" (net_name nid));
  Netlist.iter_instances nl ~f:(fun inst ->
      let inputs, outputs = Netlist.connections inst in
      let conns =
        List.map (fun (pin, nid) -> Printf.sprintf ".%s(%s)" pin (net_name nid)) (inputs @ outputs)
      in
      add "  %s %s (%s);\n" inst.Netlist.cell.Cell.name
        (mangle inst.Netlist.inst_name)
        (String.concat ", " conns));
  add "endmodule\n";
  Buffer.contents buf

let write_file path nl =
  let oc = open_out path in
  output_string oc (to_string nl);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

type token = Ident of string | Sym of char

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let rec go i =
    if i >= n then ()
    else
      match src.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1)
      | '/' when i + 1 < n && src.[i + 1] = '/' ->
        let rec skip j = if j < n && src.[j] <> '\n' then skip (j + 1) else j in
        go (skip (i + 2))
      | '\\' ->
        (* escaped identifier: up to whitespace *)
        let rec stop j = if j < n && src.[j] <> ' ' && src.[j] <> '\n' then stop (j + 1) else j in
        let j = stop (i + 1) in
        toks := Ident (String.sub src (i + 1) (j - i - 1)) :: !toks;
        go j
      | '(' | ')' | ';' | ',' | '.' ->
        toks := Sym src.[i] :: !toks;
        go (i + 1)
      | _ ->
        let is_id c =
          match c with
          | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' | '[' | ']' -> true
          | _ -> false
        in
        if is_id src.[i] then begin
          let rec stop j = if j < n && is_id src.[j] then stop (j + 1) else j in
          let j = stop i in
          toks := Ident (String.sub src i (j - i)) :: !toks;
          go j
        end
        else fail "unexpected character %C" src.[i]
  in
  go 0;
  List.rev !toks

let parse ~library src =
  let toks = ref (tokenize src) in
  let next () =
    match !toks with
    | t :: rest ->
      toks := rest;
      t
    | [] -> fail "unexpected end of input"
  in
  let expect_sym c =
    match next () with
    | Sym s when s = c -> ()
    | Sym s -> fail "expected %C, found %C" c s
    | Ident s -> fail "expected %C, found %s" c s
  in
  let expect_ident () =
    match next () with Ident s -> s | Sym c -> fail "expected identifier, found %C" c
  in
  let expect_keyword kw =
    let s = expect_ident () in
    if s <> kw then fail "expected %s, found %s" kw s
  in
  expect_keyword "module";
  let name = expect_ident () in
  let nl = Netlist.create ~name in
  let nets = Hashtbl.create 256 in
  let net_of net_name =
    match Hashtbl.find_opt nets net_name with
    | Some nid -> nid
    | None ->
      let nid = Netlist.add_net nl ~net_name () in
      Hashtbl.replace nets net_name nid;
      nid
  in
  (* port list *)
  expect_sym '(';
  let rec ports () =
    match next () with
    | Sym ')' -> ()
    | Ident dir when dir = "input" || dir = "output" -> begin
      let port = expect_ident () in
      let nid = net_of port in
      (if dir = "input" then
         if port = "clk" then Netlist.set_clock nl nid else Netlist.mark_primary_input nl nid
       else Netlist.mark_primary_output nl nid);
      match next () with
      | Sym ',' -> ports ()
      | Sym ')' -> ()
      | t -> fail "bad port list near %s" (match t with Ident s -> s | Sym c -> String.make 1 c)
    end
    | Ident s -> fail "expected port direction, found %s" s
    | Sym c -> fail "expected port direction, found %C" c
  in
  ports ();
  expect_sym ';';
  (* body: wire declarations and instances until endmodule *)
  let rec body () =
    match next () with
    | Ident "endmodule" -> ()
    | Ident "wire" ->
      let rec wires () =
        ignore (net_of (expect_ident ()));
        match next () with
        | Sym ';' -> ()
        | Sym ',' -> wires ()
        | t -> fail "bad wire decl near %s" (match t with Ident s -> s | Sym c -> String.make 1 c)
      in
      wires ();
      body ()
    | Ident cell_name ->
      let inst_name = expect_ident () in
      let cell =
        match Library.find_opt library cell_name with
        | Some c -> c
        | None -> fail "unknown cell %s" cell_name
      in
      expect_sym '(';
      let inputs = ref [] and outputs = ref [] in
      let rec conns () =
        match next () with
        | Sym ')' -> ()
        | Sym '.' -> begin
          let pin = expect_ident () in
          expect_sym '(';
          let net = expect_ident () in
          expect_sym ')';
          let nid = net_of net in
          (match Cell.find_pin cell pin with
          | Some p when Vartune_liberty.Pin.is_output p -> outputs := (pin, nid) :: !outputs
          | Some _ -> inputs := (pin, nid) :: !inputs
          | None -> fail "cell %s has no pin %s" cell_name pin);
          match next () with
          | Sym ',' -> conns ()
          | Sym ')' -> ()
          | t ->
            fail "bad connection near %s" (match t with Ident s -> s | Sym c -> String.make 1 c)
        end
        | t -> fail "bad connection near %s" (match t with Ident s -> s | Sym c -> String.make 1 c)
      in
      conns ();
      expect_sym ';';
      ignore
        (Netlist.add_instance nl ~inst_name ~cell ~inputs:(List.rev !inputs)
           ~outputs:(List.rev !outputs));
      body ()
    | Sym c -> fail "unexpected %C in module body" c
  in
  body ();
  nl

let parse_file ~library path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  parse ~library src
