(* Tests for Vartune_netlist: Netlist and Check. *)

module Netlist = Vartune_netlist.Netlist
module Check = Vartune_netlist.Check
module Library = Vartune_liberty.Library
module Cell = Vartune_liberty.Cell

let lib = Lazy.force Helpers.nominal_small
let inv = Library.find lib "INV_1"
let nd2 = Library.find lib "ND2_1"
let dff = Library.find lib "DFF_1"

(* a -> INV -> ND2(b) -> out, plus a DFF capturing the ND2 output *)
let build_chain () =
  let nl = Netlist.create ~name:"chain" in
  let clk = Netlist.add_net nl ~net_name:"clk" () in
  Netlist.set_clock nl clk;
  let a = Netlist.add_net nl ~net_name:"a" () in
  let b = Netlist.add_net nl ~net_name:"b" () in
  Netlist.mark_primary_input nl a;
  Netlist.mark_primary_input nl b;
  let mid = Netlist.add_net nl () in
  let out = Netlist.add_net nl () in
  let q = Netlist.add_net nl () in
  let i_inv =
    Netlist.add_instance nl ~inst_name:"u_inv" ~cell:inv ~inputs:[ ("A", a) ]
      ~outputs:[ ("Z", mid) ]
  in
  let i_nd =
    Netlist.add_instance nl ~inst_name:"u_nd" ~cell:nd2
      ~inputs:[ ("A", mid); ("B", b) ]
      ~outputs:[ ("Z", out) ]
  in
  let i_ff =
    Netlist.add_instance nl ~inst_name:"u_ff" ~cell:dff
      ~inputs:[ ("D", out); ("CK", clk) ]
      ~outputs:[ ("Q", q) ]
  in
  Netlist.mark_primary_output nl out;
  (nl, a, b, mid, out, i_inv, i_nd, i_ff)

let test_wiring () =
  let nl, a, _, mid, _, i_inv, i_nd, _ = build_chain () in
  Alcotest.(check int) "instances" 3 (Netlist.instance_count nl);
  let net_a = Netlist.net nl a in
  Alcotest.(check bool) "PI undriven" true (net_a.Netlist.driver = None);
  Alcotest.(check int) "a sinks" 1 (List.length net_a.Netlist.sinks);
  let net_mid = Netlist.net nl mid in
  (match net_mid.Netlist.driver with
  | Some r -> Alcotest.(check int) "mid driver" i_inv r.Netlist.inst
  | None -> Alcotest.fail "mid should be driven");
  Alcotest.(check bool) "mid sink is nd2" true
    (List.exists (fun (r : Netlist.pin_ref) -> r.inst = i_nd && r.pin = Cell.pin_index nd2 "A")
       net_mid.Netlist.sinks)

let test_double_drive_rejected () =
  let nl = Netlist.create ~name:"x" in
  let n = Netlist.add_net nl () in
  ignore (Netlist.add_instance nl ~inst_name:"i1" ~cell:inv ~inputs:[] ~outputs:[ ("Z", n) ]);
  Alcotest.(check bool) "second driver rejected" true
    (try
       ignore (Netlist.add_instance nl ~inst_name:"i2" ~cell:inv ~inputs:[] ~outputs:[ ("Z", n) ]);
       false
     with Invalid_argument _ -> true)

let test_bad_pin_rejected () =
  let nl = Netlist.create ~name:"x" in
  let n = Netlist.add_net nl () in
  Alcotest.(check bool) "unknown pin" true
    (try
       ignore
         (Netlist.add_instance nl ~inst_name:"i" ~cell:inv ~inputs:[ ("NOPE", n) ]
            ~outputs:[]);
       false
     with Invalid_argument _ -> true)

let test_remove_instance () =
  let nl, a, _, mid, _, i_inv, _, _ = build_chain () in
  Netlist.remove_instance nl i_inv;
  Alcotest.(check int) "count" 2 (Netlist.instance_count nl);
  Alcotest.(check bool) "tombstone" true (Netlist.instance_opt nl i_inv = None);
  Alcotest.(check bool) "mid undriven" true ((Netlist.net nl mid).Netlist.driver = None);
  Alcotest.(check int) "a sinks cleared" 0 (List.length (Netlist.net nl a).Netlist.sinks)

let test_set_cell () =
  let nl, _, _, _, _, i_inv, _, _ = build_chain () in
  let inv4 = Library.find lib "INV_4" in
  Netlist.set_cell nl i_inv inv4;
  Alcotest.(check string) "resized" "INV_4" (Netlist.instance nl i_inv).Netlist.cell.Cell.name;
  (* a cell without the wired pins is rejected *)
  Alcotest.(check bool) "bad swap rejected" true
    (try
       Netlist.set_cell nl i_inv dff;
       false
     with Invalid_argument _ -> true)

let test_rewire_input () =
  let nl, a, b, _, _, _, i_nd, _ = build_chain () in
  Netlist.rewire_input nl ~inst:i_nd ~pin:(Cell.pin_index nd2 "A") b;
  let inst = Netlist.instance nl i_nd in
  Alcotest.(check bool) "pin moved" true (Netlist.pin_net inst "A" = b);
  Alcotest.(check int) "b has two sinks" 2 (List.length (Netlist.net nl b).Netlist.sinks);
  Alcotest.(check bool) "a sink gone" true
    (not
       (List.exists (fun (r : Netlist.pin_ref) -> r.inst = i_nd && r.pin = Cell.pin_index nd2 "A")
          (Netlist.net nl a).Netlist.sinks))

let test_usage_and_area () =
  let nl, _, _, _, _, _, _, _ = build_chain () in
  let usage = Netlist.cell_usage nl in
  Alcotest.(check int) "3 distinct cells" 3 (List.length usage);
  Alcotest.(check bool) "counts" true (List.for_all (fun (_, c) -> c = 1) usage);
  let expected = inv.Cell.area +. nd2.Cell.area +. dff.Cell.area in
  Helpers.check_float "area" expected (Netlist.total_area nl);
  let f1 = Netlist.fresh_name nl ~prefix:"buf" in
  let f2 = Netlist.fresh_name nl ~prefix:"buf" in
  Alcotest.(check bool) "fresh names distinct" true (f1 <> f2)

(* ------------------------------- Check ------------------------------ *)

let test_validate_ok () =
  let nl, _, _, _, _, _, _, _ = build_chain () in
  Alcotest.(check bool) "valid" true (Check.validate nl = Ok ())

let test_validate_undriven () =
  let nl = Netlist.create ~name:"x" in
  let n = Netlist.add_net nl () in
  ignore (Netlist.add_instance nl ~inst_name:"i" ~cell:inv ~inputs:[ ("A", n) ] ~outputs:[]);
  match Check.validate nl with
  | Error errors ->
    Alcotest.(check bool) "mentions driver" true
      (List.exists (fun e -> String.length e > 0) errors)
  | Ok () -> Alcotest.fail "undriven net accepted"

let test_validate_unconnected_pin () =
  let nl = Netlist.create ~name:"x" in
  let out = Netlist.add_net nl () in
  (* ND2 with only pin A connected *)
  let a = Netlist.add_net nl () in
  Netlist.mark_primary_input nl a;
  ignore
    (Netlist.add_instance nl ~inst_name:"i" ~cell:nd2 ~inputs:[ ("A", a) ]
       ~outputs:[ ("Z", out) ]);
  Alcotest.(check bool) "pin B unconnected" true (Result.is_error (Check.validate nl))

let test_validate_clock () =
  let nl = Netlist.create ~name:"x" in
  let d = Netlist.add_net nl () in
  let q = Netlist.add_net nl () in
  let not_clock = Netlist.add_net nl () in
  Netlist.mark_primary_input nl d;
  Netlist.mark_primary_input nl not_clock;
  ignore
    (Netlist.add_instance nl ~inst_name:"ff" ~cell:dff
       ~inputs:[ ("D", d); ("CK", not_clock) ]
       ~outputs:[ ("Q", q) ]);
  (* no clock declared at all *)
  Alcotest.(check bool) "no clock net" true (Result.is_error (Check.validate nl))

let test_topological_order () =
  let nl, _, _, _, _, i_inv, i_nd, i_ff = build_chain () in
  let order = Array.to_list (Check.topological_order nl) in
  Alcotest.(check int) "all ordered" 3 (List.length order);
  let pos x = Option.get (List.find_index (fun y -> y = x) order) in
  Alcotest.(check bool) "inv before nd2" true (pos i_inv < pos i_nd);
  Alcotest.(check bool) "ff anywhere before its D use (it has none)" true (pos i_ff >= 0)

let test_combinational_loop () =
  let nl = Netlist.create ~name:"loop" in
  let x = Netlist.add_net nl () in
  let y = Netlist.add_net nl () in
  ignore (Netlist.add_instance nl ~inst_name:"i1" ~cell:inv ~inputs:[ ("A", x) ] ~outputs:[ ("Z", y) ]);
  ignore (Netlist.add_instance nl ~inst_name:"i2" ~cell:inv ~inputs:[ ("A", y) ] ~outputs:[ ("Z", x) ]);
  Alcotest.(check bool) "loop detected" true
    (try
       ignore (Check.topological_order nl);
       false
     with Check.Combinational_loop _ -> true)

let test_logic_depths () =
  let nl, _, _, _, _, i_inv, i_nd, i_ff = build_chain () in
  let depths = Check.logic_depths nl in
  Alcotest.(check int) "inv depth" 1 (List.assoc i_inv depths);
  Alcotest.(check int) "nd2 depth" 2 (List.assoc i_nd depths);
  Alcotest.(check int) "ff depth" 0 (List.assoc i_ff depths)

(* ------------------------------ Verilog ------------------------------ *)

module Verilog = Vartune_netlist.Verilog

let test_verilog_writer () =
  let nl, _, _, _, _, _, _, _ = build_chain () in
  let text = Verilog.to_string nl in
  let contains sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length text && (String.sub text i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "module header" true (contains "module chain");
  Alcotest.(check bool) "instances" true (contains "INV_1 u_inv");
  Alcotest.(check bool) "named connections" true (contains ".A(");
  Alcotest.(check bool) "endmodule" true (contains "endmodule")

let test_verilog_roundtrip () =
  let nl, _, _, _, _, _, _, _ = build_chain () in
  let text = Verilog.to_string nl in
  let back = Verilog.parse ~library:lib text in
  Alcotest.(check int) "instances" (Netlist.instance_count nl) (Netlist.instance_count back);
  Alcotest.(check int) "pis" (List.length (Netlist.primary_inputs nl))
    (List.length (Netlist.primary_inputs back));
  Alcotest.(check int) "pos" (List.length (Netlist.primary_outputs nl))
    (List.length (Netlist.primary_outputs back));
  Alcotest.(check bool) "clock recovered" true (Netlist.clock back <> None);
  Alcotest.(check bool) "validates" true (Check.validate back = Ok ());
  Alcotest.(check (list (pair string int))) "same cell usage" (Netlist.cell_usage nl)
    (Netlist.cell_usage back)

let test_verilog_roundtrip_functional () =
  (* the round-tripped netlist computes the same function *)
  let nl, _, _, _, _, _, _, _ = build_chain () in
  let back = Verilog.parse ~library:lib (Verilog.to_string nl) in
  List.iter
    (fun (a, b) ->
      Alcotest.(check (list bool))
        (Printf.sprintf "vector %b,%b" a b)
        (Helpers.eval_netlist nl ~input_values:[ a; b ])
        (Helpers.eval_netlist back ~input_values:[ a; b ]))
    [ (false, false); (false, true); (true, false); (true, true) ]

let test_verilog_escaped_identifiers () =
  (* net names with brackets survive via escaped identifiers *)
  let nl = Netlist.create ~name:"esc" in
  let a = Netlist.add_net nl ~net_name:"data[3]" () in
  Netlist.mark_primary_input nl a;
  let z = Netlist.add_net nl ~net_name:"out[0]" () in
  ignore
    (Netlist.add_instance nl ~inst_name:"u1" ~cell:inv ~inputs:[ ("A", a) ]
       ~outputs:[ ("Z", z) ]);
  Netlist.mark_primary_output nl z;
  let back = Verilog.parse ~library:lib (Verilog.to_string nl) in
  Alcotest.(check int) "instance" 1 (Netlist.instance_count back)

let test_verilog_parse_errors () =
  let expect_error src =
    Alcotest.(check bool) ("rejects " ^ src) true
      (try
         ignore (Verilog.parse ~library:lib src);
         false
       with Verilog.Parse_error _ -> true)
  in
  expect_error "";
  expect_error "module m (";
  expect_error "module m (input a); UNKNOWN_CELL u (.A(a)); endmodule";
  expect_error "module m (input a); INV_1 u (.NOPE(a)); endmodule"

(* ------------------------- export / import -------------------------- *)

(* Mutate a netlist the way the sizer does — resize, remove (leaving a
   tombstone), rewire, burn names — then check the snapshot reproduces
   the internal state exactly, including slot indices and sink order. *)
let test_export_import_faithful () =
  let nl, a, _b, _mid, _out, i_inv, i_nd, _i_ff = build_chain () in
  ignore (Netlist.fresh_name nl ~prefix:"buf");
  Netlist.remove_instance nl i_inv;
  Netlist.rewire_input nl ~inst:i_nd ~pin:(Cell.pin_index nd2 "A") a;
  let repr = Netlist.export nl in
  let back = Netlist.import repr in
  Alcotest.(check string) "name" (Netlist.name nl) (Netlist.name back);
  Alcotest.(check int) "net count" (Netlist.net_count nl) (Netlist.net_count back);
  Alcotest.(check int) "live instances" (Netlist.instance_count nl)
    (Netlist.instance_count back);
  Alcotest.(check bool) "tombstone preserved" true
    (Netlist.instance_opt back i_inv = None);
  Alcotest.(check (list int)) "primary inputs" (Netlist.primary_inputs nl)
    (Netlist.primary_inputs back);
  Alcotest.(check (list int)) "primary outputs" (Netlist.primary_outputs nl)
    (Netlist.primary_outputs back);
  Alcotest.(check bool) "clock" true (Netlist.clock nl = Netlist.clock back);
  (* sink order fixes float summation order in net loads — exact match *)
  for nid = 0 to Netlist.net_count nl - 1 do
    let n = Netlist.net nl nid and n' = Netlist.net back nid in
    Alcotest.(check bool)
      (Printf.sprintf "net %d sinks" nid)
      true
      (n.Netlist.sinks = n'.Netlist.sinks && n.Netlist.driver = n'.Netlist.driver)
  done;
  (* a second snapshot of the rebuild is byte-for-byte the first *)
  Alcotest.(check bool) "repr fixpoint" true (Netlist.export back = repr);
  Alcotest.(check string) "name counter continues identically"
    (Netlist.fresh_name nl ~prefix:"x")
    (Netlist.fresh_name back ~prefix:"x")

let test_import_rejects_corrupt () =
  let nl, _, _, _, _, _, _, _ = build_chain () in
  let repr = Netlist.export nl in
  let expect_reject label repr =
    Alcotest.(check bool) label true
      (try
         ignore (Netlist.import repr);
         false
       with Invalid_argument _ -> true)
  in
  (* a sink pointing at a pin the cell does not have *)
  let bad_sinks =
    Array.map
      (fun (n, d, sinks) ->
        (n, d, List.map (fun (inst, _) -> (inst, "NOPE")) sinks))
      repr.Netlist.repr_nets
  in
  expect_reject "bad sink pin" { repr with Netlist.repr_nets = bad_sinks };
  (* an instance input naming a net that does not exist *)
  let bad_inst =
    Array.map
      (Option.map (fun (n, c, inputs, outputs) ->
           (n, c, List.map (fun (p, _) -> (p, 9999)) inputs, outputs)))
      repr.Netlist.repr_instances
  in
  expect_reject "net out of range" { repr with Netlist.repr_instances = bad_inst }

let () =
  Alcotest.run "netlist"
    [
      ( "netlist",
        [
          Alcotest.test_case "wiring" `Quick test_wiring;
          Alcotest.test_case "double drive" `Quick test_double_drive_rejected;
          Alcotest.test_case "bad pin" `Quick test_bad_pin_rejected;
          Alcotest.test_case "remove instance" `Quick test_remove_instance;
          Alcotest.test_case "set cell" `Quick test_set_cell;
          Alcotest.test_case "rewire input" `Quick test_rewire_input;
          Alcotest.test_case "usage/area/names" `Quick test_usage_and_area;
          Alcotest.test_case "export/import faithful" `Quick test_export_import_faithful;
          Alcotest.test_case "import rejects corrupt" `Quick test_import_rejects_corrupt;
        ] );
      ( "check",
        [
          Alcotest.test_case "validate ok" `Quick test_validate_ok;
          Alcotest.test_case "undriven net" `Quick test_validate_undriven;
          Alcotest.test_case "unconnected pin" `Quick test_validate_unconnected_pin;
          Alcotest.test_case "clock discipline" `Quick test_validate_clock;
          Alcotest.test_case "topological order" `Quick test_topological_order;
          Alcotest.test_case "combinational loop" `Quick test_combinational_loop;
          Alcotest.test_case "logic depths" `Quick test_logic_depths;
        ] );
      ( "verilog",
        [
          Alcotest.test_case "writer" `Quick test_verilog_writer;
          Alcotest.test_case "roundtrip" `Quick test_verilog_roundtrip;
          Alcotest.test_case "roundtrip functional" `Quick test_verilog_roundtrip_functional;
          Alcotest.test_case "escaped identifiers" `Quick test_verilog_escaped_identifiers;
          Alcotest.test_case "parse errors" `Quick test_verilog_parse_errors;
        ] );
    ]
