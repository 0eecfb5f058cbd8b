(* The ledger's faithfulness: its replay of [Driver.run] must return
   the driver's result record field for field, traced or bare, and the
   comparison must catch a replay that skips a layer step. *)

open Mk_cluster

(* A few cells per kernel: every application at its two smallest node
   counts plus one mid-size count, under each of the three kernels. *)
let cells () =
  List.concat_map
    (fun (app : Mk_apps.App.t) ->
      let counts =
        match app.node_counts with a :: b :: _ -> [ a; b; 64 ] | l -> l
      in
      List.concat_map
        (fun scenario -> List.map (fun nodes -> (scenario, app, nodes)) counts)
        Scenario.trio)
    Mk_apps.Registry.all

let label ((sc : Scenario.t), (app : Mk_apps.App.t), nodes) =
  Printf.sprintf "%s/%s/%d" app.name sc.label nodes

let driver (scenario, app, nodes) = Driver.run ~scenario ~app ~nodes ~seed:42 ()

let replay ?perturb ?rec_ (scenario, app, nodes) =
  Perfbench.Ledger.replay ?perturb ?rec_ ~scenario ~app ~nodes ~seed:42 ()

let test_faithful () =
  let r = Perfbench.Ledger.recorder () in
  List.iter
    (fun c ->
      let expected = driver c in
      let msg = label c in
      Alcotest.(check string)
        (msg ^ " bare") (Perfbench.Ledger.result_to_string expected)
        (Perfbench.Ledger.result_to_string (replay c));
      Alcotest.(check bool)
        (msg ^ " traced") true
        (Perfbench.Ledger.same_result expected (replay ~rec_:r c)))
    (cells ());
  let names = List.map fst (Perfbench.Ledger.layers r) in
  List.iter
    (fun l ->
      Alcotest.(check bool) ("layer " ^ l ^ " recorded") true (List.mem l names))
    [
      "kernel.boot"; "mem.setup"; "mem.touch_all"; "kernel.run_ops"; "hw.stream";
      "noise.max_delay"; "mpi.allreduce"; "mpi.halo"; "ikc.control";
    ]

(* Dropping the cold shared-memory touch changes the first iteration
   on every kernel that does not premap its windows; the guard must
   report those cells, and only a perturbed replay may differ. *)
let test_guard_fires () =
  let differing =
    List.filter
      (fun c ->
        not
          (Perfbench.Ledger.same_result (driver c)
             (replay ~perturb:Perfbench.Ledger.Drop_touch_all c)))
      (cells ())
  in
  Alcotest.(check bool) "perturbed replay caught" true (differing <> []);
  Alcotest.(check bool)
    "a Linux cell is among them" true
    (List.exists
       (fun ((sc : Scenario.t), _, _) -> sc.label = Scenario.linux.label)
       differing)

let () =
  Alcotest.run "perfbench"
    [
      ( "ledger",
        [
          Alcotest.test_case "replay matches Driver.run" `Quick test_faithful;
          Alcotest.test_case "guard fires on a dropped touch_all" `Quick test_guard_fires;
        ] );
    ]
