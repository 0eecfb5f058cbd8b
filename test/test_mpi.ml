(* Tests for the MPI runtime: shared-memory transport,
   collectives over node clocks and halo exchanges. *)

open Mk_mpi

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_shm_message_time () =
  check_bool "latency floor" true (Shm.message_time ~bytes:0 >= Shm.latency);
  check_bool "monotone" true
    (Shm.message_time ~bytes:(1024 * 1024) > Shm.message_time ~bytes:1024)

let test_shm_reduce_steps () =
  check_int "1 rank" 0 (Shm.reduce_steps ~ranks:1);
  check_int "2 ranks" 1 (Shm.reduce_steps ~ranks:2);
  check_int "64 ranks" 6 (Shm.reduce_steps ~ranks:64);
  check_int "65 ranks" 7 (Shm.reduce_steps ~ranks:65)

let mk_env ?(nodes = 16) () =
  {
    Collective.fabric = Mk_fabric.Fabric.make ~nodes ();
    syscall_cost = (fun _ -> 0);
    intra_ranks = 64;
  }

let test_allreduce_synchronises () =
  let env = mk_env () in
  let clocks = Array.init 16 (fun i -> i * 1000) in
  Collective.allreduce env ~clocks ~bytes:8;
  (* After an allreduce everyone has at least the straggler's time
     plus communication. *)
  let mx = Array.fold_left max 0 clocks in
  let mn = Array.fold_left min max_int clocks in
  check_bool "everyone past the straggler" true (mn >= 15_000);
  (* Tree broadcast skew is bounded by depth * edge cost. *)
  check_bool "bounded skew" true (mx - mn < 100_000)

let test_allreduce_cost_grows_with_scale () =
  let cost nodes =
    let env = mk_env ~nodes () in
    let clocks = Array.make nodes 0 in
    Collective.allreduce env ~clocks ~bytes:8;
    Array.fold_left max 0 clocks
  in
  check_bool "1024 dearer than 16" true (cost 1024 > cost 16);
  check_bool "log-ish growth" true (cost 1024 < 4 * cost 16)

let test_allreduce_straggler_gates_everyone () =
  let env = mk_env () in
  let clocks = Array.make 16 0 in
  clocks.(7) <- 1_000_000;
  Collective.allreduce env ~clocks ~bytes:8;
  Array.iteri
    (fun i c -> check_bool (Printf.sprintf "node %d waited" i) true (c >= 1_000_000))
    clocks

let test_allreduce_single_node () =
  let env = mk_env ~nodes:1 () in
  let clocks = [| 500 |] in
  Collective.allreduce env ~clocks ~bytes:8;
  (* Only the intra-node reduction applies. *)
  check_int "intra cost only" (500 + Shm.intra_allreduce ~ranks:64 ~bytes:8) clocks.(0)

let test_allreduce_syscall_cost_charged () =
  (* With a fat payload the edges charge the sender's control calls. *)
  let base = mk_env () in
  let env = { base with Collective.syscall_cost = (fun _ -> 10_000) } in
  let free = mk_env () in
  let c1 = Array.make 16 0 and c2 = Array.make 16 0 in
  Collective.allreduce env ~clocks:c1 ~bytes:(256 * 1024);
  Collective.allreduce free ~clocks:c2 ~bytes:(256 * 1024);
  check_bool "syscalls on the critical path" true
    (Array.fold_left max 0 c1 > Array.fold_left max 0 c2)

let test_neighbor_offsets () =
  let offsets = P2p.neighbor_offsets ~nodes:64 ~neighbors:6 in
  check_int "six offsets" 6 (List.length offsets);
  (* 3D decomposition of 64 nodes: side 4. *)
  Alcotest.(check (list int)) "stencil offsets" [ 1; -1; 4; -4; 16; -16 ] offsets

let test_halo_waits_for_neighbors () =
  let env = mk_env () in
  let clocks = Array.make 16 0 in
  clocks.(1) <- 500_000;
  P2p.halo env ~clocks ~bytes:1024 ~neighbors:2;
  (* Node 0 talks to 1 (offset +-1): it must wait for node 1. *)
  check_bool "node 0 waited for 1" true (clocks.(0) > 500_000);
  (* A node far from the straggler in the ring is unaffected. *)
  check_bool "node 8 oblivious" true (clocks.(8) < 100_000)

let test_halo_single_node_noop () =
  let env = mk_env ~nodes:1 () in
  let clocks = [| 42 |] in
  P2p.halo env ~clocks ~bytes:1024 ~neighbors:6;
  check_int "unchanged" 42 clocks.(0)


(* ------------------------------------------------------------------ *)
(* Event-driven intra-node collective *)

let test_intranode_single_rank () =
  let r = Intranode.allreduce ~ranks:1 ~bytes:8 ~wait:Intranode.Spin () in
  check_int "no messages" 0 r.Intranode.messages;
  check_int "instant" 0 r.Intranode.completion

let test_intranode_message_count () =
  (* A binomial reduce + broadcast over R ranks moves 2(R-1) messages. *)
  List.iter
    (fun ranks ->
      let r = Intranode.allreduce ~ranks ~bytes:8 ~wait:Intranode.Spin () in
      check_int (Printf.sprintf "%d ranks" ranks) (2 * (ranks - 1)) r.Intranode.messages)
    [ 2; 3; 8; 17; 64 ]

let test_intranode_log_depth () =
  (* Completion grows with the tree depth, not the rank count. *)
  let time ranks =
    (Intranode.allreduce ~ranks ~bytes:8 ~wait:Intranode.Spin ()).Intranode.completion
  in
  let t2 = time 2 and t64 = time 64 in
  check_bool "64 ranks only ~6x deeper" true (t64 <= 6 * t2 + 1)

let test_intranode_futex_dearer () =
  let spin = Intranode.allreduce ~ranks:64 ~bytes:8 ~wait:Intranode.Spin () in
  let futex =
    Intranode.allreduce ~ranks:64 ~bytes:8 ~wait:(Intranode.Futex_wake 4_000) ()
  in
  check_bool "futex wakes cost" true
    (futex.Intranode.completion > spin.Intranode.completion);
  check_int "every message wakes someone" futex.Intranode.messages
    futex.Intranode.wakeups;
  check_int "spin never wakes" 0 spin.Intranode.wakeups

let test_intranode_straggler_gates () =
  let skew rank = if rank = 33 then 1_000_000 else 0 in
  let r = Intranode.allreduce ~ranks:64 ~bytes:8 ~wait:Intranode.Spin ~skew () in
  check_bool "held by the straggler" true (r.Intranode.completion > 1_000_000)

let test_intranode_matches_analytic_shape () =
  (* The DES and the analytic intra-node cost agree within a small
     factor (the analytic model charges 2 log2 R full steps). *)
  let des =
    (Intranode.allreduce ~ranks:64 ~bytes:8 ~wait:Intranode.Spin ()).Intranode.completion
  in
  let analytic = Shm.intra_allreduce ~ranks:64 ~bytes:8 in
  check_bool "same order of magnitude" true (analytic / 3 < des && des < analytic * 3)

let test_intranode_sweep_monotone () =
  let sweep =
    Intranode.latency_sweep ~ranks:16 ~wait:Intranode.Spin [ 8; 1024; 65536; 1048576 ]
  in
  let rec monotone = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  check_bool "latency grows with size" true (monotone sweep)

let allreduce_preserves_order =
  QCheck.Test.make ~name:"allreduce never rewinds a clock" ~count:50
    QCheck.(list_of_size (Gen.return 16) (int_range 0 1_000_000))
    (fun starts ->
      let clocks = Array.of_list starts in
      let before = Array.copy clocks in
      let env = mk_env () in
      Collective.allreduce env ~clocks ~bytes:8;
      Array.for_all2 (fun a b -> b >= a) before clocks)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "mk_mpi"
    [
      ( "shm",
        [
          Alcotest.test_case "message time" `Quick test_shm_message_time;
          Alcotest.test_case "reduce steps" `Quick test_shm_reduce_steps;
        ] );
      ( "collective",
        Alcotest.test_case "synchronises" `Quick test_allreduce_synchronises
        :: Alcotest.test_case "cost grows with scale" `Quick
             test_allreduce_cost_grows_with_scale
        :: Alcotest.test_case "straggler gates" `Quick
             test_allreduce_straggler_gates_everyone
        :: Alcotest.test_case "single node" `Quick test_allreduce_single_node
        :: Alcotest.test_case "syscalls charged" `Quick
             test_allreduce_syscall_cost_charged
        :: qsuite [ allreduce_preserves_order ] );
      ( "intranode",
        [
          Alcotest.test_case "single rank" `Quick test_intranode_single_rank;
          Alcotest.test_case "message count" `Quick test_intranode_message_count;
          Alcotest.test_case "log depth" `Quick test_intranode_log_depth;
          Alcotest.test_case "futex dearer" `Quick test_intranode_futex_dearer;
          Alcotest.test_case "straggler gates" `Quick test_intranode_straggler_gates;
          Alcotest.test_case "matches analytic" `Quick
            test_intranode_matches_analytic_shape;
          Alcotest.test_case "sweep monotone" `Quick test_intranode_sweep_monotone;
        ] );
      ( "p2p",
        [
          Alcotest.test_case "neighbor offsets" `Quick test_neighbor_offsets;
          Alcotest.test_case "waits for neighbors" `Quick test_halo_waits_for_neighbors;
          Alcotest.test_case "single node noop" `Quick test_halo_single_node_noop;
        ] );
    ]
