(* The simulator's benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1
     main.exe golden --seed N

   With [--trace 0] it sets the workload up several times (warm-up and
   reference outputs included), times as many passes as fit in S
   seconds and prints the end-to-end metrics; with [--trace 1] it runs
   one traced pass and prints the per-layer ledger instead.  The last
   line of standard output is one JSON object.  [golden] prints the
   digest lines of every workload for one seed, the format of
   perfbench/golden.txt.  See perfbench/README.md. *)

open Perfbench
open Mk_cluster
module Pool = Mk_engine.Pool

let now_ns = Ledger.now_ns

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* A unit's figure over a run's passes is its fastest pass: a stall,
   or a burst of load from elsewhere on the host, only ever adds time,
   so the minimum is the statistic such transients cannot move. *)
let fastest xs = List.fold_left min infinity xs

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* A fixed kernel owned by the benchmark, timed between passes: when
   it slows down too, the host did, not the simulator.  Dependent
   random reads over 16 MB, outside the OCaml heap so that it moves no
   heap or GC figure: the simulator is bound by memory latency as
   much as by arithmetic, and so is this. *)
let reference_table =
  lazy
    (let t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 21) in
     for i = 0 to (1 lsl 21) - 1 do
       t.{i} <- (i * 0x9E3779B1) land 0xFFFFFF
     done;
     t)

let reference_kernel () =
  let t = Lazy.force reference_table in
  let mask = Bigarray.Array1.dim t - 1 in
  let x = ref 0x2545F4914F6CDD1D and acc = ref 0 in
  for _ = 1 to 200_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    acc := (!acc + t.{(!x lxor !acc) land mask}) land 0xFFFFFF
  done;
  !acc

let time_reference () =
  let t0 = now_ns () in
  let v = reference_kernel () in
  let dt = now_ns () - t0 in
  if v < 0 then prerr_endline "reference kernel overflow";
  float_of_int dt

(* ------------------------------------------------------------------ *)
(* Checked units of work                                               *)

(* One timed unit does the work, and the closure it returns computes
   the (label, digest) outputs to check, untimed. *)
type work = unit -> unit -> (string * string) list

type checker = {
  golden : (string, string) Hashtbl.t option;
  reference : (string, string) Hashtbl.t;  (** serial / sequential outputs *)
  first : (string, string) Hashtbl.t;  (** first-pass outputs *)
  mutable attempted : int;
  mutable failed : int;
}

let checker golden =
  {
    golden;
    reference = Hashtbl.create 16;
    first = Hashtbl.create 512;
    attempted = 0;
    failed = 0;
  }

(* A seed with golden digests is checked against them (and against
   the serial/sequential reference where the workload has one); any
   other seed against the reference, or failing that against the
   run's first pass. *)
let check ck (label, d) =
  let ok =
    match ck.golden with
    | Some g -> (
        (match Hashtbl.find_opt g label with Some e -> e = d | None -> false)
        && match Hashtbl.find_opt ck.reference label with Some e -> e = d | None -> true)
    | None -> (
        match Hashtbl.find_opt ck.reference label with
        | Some e -> e = d
        | None -> (
            match Hashtbl.find_opt ck.first label with
            | Some e -> e = d
            | None ->
                Hashtbl.replace ck.first label d;
                true))
  in
  ck.attempted <- ck.attempted + 1;
  if not ok then begin
    ck.failed <- ck.failed + 1;
    Printf.eprintf "MISMATCH %s: %s\n%!" label d
  end

(* ------------------------------------------------------------------ *)
(* Workload contexts                                                   *)

type ctx = {
  units : work list;
  node_iters : int;  (** simulated node-iterations per pass *)
  checker : checker;
  warmup : unit -> unit;  (** part of set-up; also fills [checker.reference] *)
  pool : Pool.t option;
  min_passes : int;
  count_all_passes : bool;
      (** allocation and GC counts over every pass (pooled workloads)
          rather than the first [min_passes] (exact repeats) *)
  reference_note : string;
  note : unit -> string;  (** observations reported but not checked *)
}

let teardown ctx = Option.iter Pool.shutdown ctx.pool

(* Two executors in total: one worker domain plus the submitter. *)
let make_pool () = Pool.create ~num_domains:1 ()

let suite_ctx kind ~seed ~golden =
  let per_app = Workloads.suite_cells kind ~seed in
  (* Scenario prototypes: boot each kernel model once, so a broken
     scenario fails in set-up rather than mid-pass. *)
  let cells = List.concat_map snd per_app in
  List.iter
    (fun (sc : Scenario.t) ->
      if List.exists (fun (c : Experiment.cell) -> c.scenario.label = sc.label) cells then
        ignore (sc.make ()))
    Scenario.trio;
  let points = Hashtbl.create 512 in
  let cell_work (c : Experiment.cell) () =
    let p = List.hd (Experiment.points [ c ]) in
    Hashtbl.replace points (Workloads.cell_label c) p;
    fun () -> [ (Workloads.cell_label c, Workloads.point_digest p) ]
  in
  let report_work () =
    let text =
      Workloads.report per_app ~point:(fun c ->
          Hashtbl.find points (Workloads.cell_label c))
    in
    fun () -> [ ("report", Workloads.digest text) ]
  in
  let warm = List.filter (fun (c : Experiment.cell) -> c.nodes <= 64) cells in
  {
    units = List.map cell_work cells @ [ report_work ];
    node_iters = List.fold_left (fun acc c -> acc + Workloads.node_iters c) 0 cells;
    checker = checker golden;
    warmup = (fun () -> ignore (Experiment.points warm));
    pool = None;
    min_passes = (match kind with Workloads.Suite_linux -> 2 | _ -> 3);
    count_all_passes = false;
    reference_note = "the run's first pass";
    note = (fun () -> "");
  }

(* The two pooled tiers share one pool: each pass runs the sharded DES
   once and the fault tables once, each timed as its own unit. *)
let engine_ctx ~seed ~golden =
  let pool = make_pool () in
  let params = Workloads.des_params () in
  let node_iters = Workloads.des_node_iters + Workloads.faults_node_iters ~seed in
  let ck = checker golden in
  let stalls = ref [] in
  {
    units =
      [
        (fun () ->
          let r, s = Workloads.des_sharded ~pool params ~seed in
          fun () ->
            stalls := s.horizon_stalls :: !stalls;
            [
              ("des", Workloads.des_digest r s);
              ("des/serial", Workloads.des_serial_digest r);
            ]);
        (fun () ->
          let tables = Workloads.faults_run ~pool ~seed () in
          fun () -> Workloads.fault_rows tables);
      ];
    node_iters;
    checker = ck;
    warmup =
      (fun () ->
        Hashtbl.replace ck.reference "des/serial"
          (Workloads.des_serial_digest (Workloads.des_serial params ~seed));
        List.iter
          (fun (l, d) -> Hashtbl.replace ck.reference l d)
          (Workloads.fault_rows (Workloads.faults_run ~seed ())));
    pool = Some pool;
    min_passes = 3;
    count_all_passes = true;
    reference_note = "the serial heap and the sequential fault tables";
    note =
      (fun () ->
        match List.sort_uniq compare !stalls with
        | [ _ ] | [] -> ""
        | l ->
            Printf.sprintf "horizon_stalls varied between passes (unchecked): %s"
              (String.concat " " (List.map string_of_int l)));
  }

let make_ctx kind ~seed =
  let golden = Workloads.golden kind ~seed in
  match kind with
  | Workloads.Suite_linux | Workloads.Suite_lwk -> suite_ctx kind ~seed ~golden
  | Workloads.Engine_j2 -> engine_ctx ~seed ~golden

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun (n, v, u) -> Printf.printf "%-32s %18.6f %s\n" n v u) metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (n, v, u) ->
           let v = if Float.is_finite v then v else 0. in
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

(* ------------------------------------------------------------------ *)
(* Timed run                                                           *)

let setup_reps = 3

let timed kind ~seed ~seconds =
  (* Set-up is everything before the first timed pass: the context,
     the warm-up and the reference outputs.  It is repeated; the median
     is the reported figure and the last context is the one measured. *)
  let setups, ctx =
    let rec go i acc prev =
      if i = setup_reps then (acc, Option.get prev)
      else begin
        Option.iter teardown prev;
        let t0 = now_ns () in
        let c = make_ctx kind ~seed in
        c.warmup ();
        go (i + 1) (float_of_int (now_ns () - t0) /. 1e9 :: acc) (Some c)
      end
    in
    go 0 [] None
  in
  Fun.protect ~finally:(fun () -> teardown ctx) @@ fun () ->
  let n = List.length ctx.units in
  let walls = Array.make n [] and cpus = Array.make n [] in
  let refs = ref [] in
  let alloc = ref 0. and majors = ref 0 and counted = ref 0 and top_heap = ref 0 in
  let passes = ref 0 and last_pass = ref 0 and pass_times = ref [] in
  let budget = seconds * 1_000_000_000 in
  let start = now_ns () in
  while
    !passes < ctx.min_passes || now_ns () - start + !last_pass <= budget
  do
    refs := time_reference () :: !refs;
    Gc.minor ();
    let s0 = Gc.quick_stat () in
    let p0 = now_ns () in
    List.iteri
      (fun i u ->
        let t0 = now_ns () and c0 = cpu_s () in
        let outputs = u () in
        let t1 = now_ns () and c1 = cpu_s () in
        walls.(i) <- float_of_int (t1 - t0) /. 1e9 :: walls.(i);
        cpus.(i) <- (c1 -. c0) :: cpus.(i);
        List.iter (check ctx.checker) (outputs ()))
      ctx.units;
    last_pass := now_ns () - p0;
    pass_times := float_of_int !last_pass /. 1e9 :: !pass_times;
    Gc.minor ();
    let s1 = Gc.quick_stat () in
    if ctx.count_all_passes || !passes < ctx.min_passes then begin
      alloc := !alloc +. (s1.Gc.minor_words -. s0.Gc.minor_words);
      majors := !majors + (s1.Gc.major_collections - s0.Gc.major_collections);
      incr counted
    end;
    incr passes;
    (* The heap's high-water mark creeps up with every pass, so it is
       read after a fixed number of them, not after as many as the
       host managed. *)
    if !passes = ctx.min_passes then top_heap := s1.Gc.top_heap_words
  done;
  let sum_of f a = Array.fold_left (fun acc xs -> acc +. f xs) 0. a in
  let wall = sum_of fastest walls and cpu = sum_of fastest cpus in
  let per_pass x = x /. float_of_int !counted in
  let ck = ctx.checker in
  if ck.golden = None then
    Printf.eprintf "seed %d has no golden digests: ok_pct is against %s\n" seed
      ctx.reference_note;
  let top_heap = float_of_int !top_heap in
  Printf.printf "workload %s, seed %d: %d passes in %.1f s; host.ref_ns %.0f\n"
    (Workloads.name kind) seed !passes
    (float_of_int (now_ns () - start) /. 1e9)
    (median !refs);
  Printf.printf "pass times (s): %s\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !pass_times));
  (match ctx.note () with "" -> () | s -> print_endline s);
  print_result ~correct:(ck.failed = 0) ~attempted:ck.attempted ~failed:ck.failed
    [
      ("setup_s", median setups, "s");
      ("wall_s", wall, "s");
      ("cpu_s", cpu, "s");
      ("node_iters_per_s", float_of_int ctx.node_iters /. wall, "1/s");
      ("alloc_mwords", per_pass !alloc /. 1e6, "Mwords");
      ("major_gcs", per_pass (float_of_int !majors), "count");
      ("peak_heap_mb", top_heap *. float_of_int (Sys.word_size / 8) /. 1048576., "MB");
      ( "ok_pct",
        100. *. float_of_int (ck.attempted - ck.failed)
        /. float_of_int (max 1 ck.attempted),
        "%" );
    ]

(* ------------------------------------------------------------------ *)
(* Traced run: the per-layer ledger                                    *)

let per_layer =
  [
    ("host.ref_ns", "ns");
    ("noise.max_delay.calls", "count");
    ("noise.max_delay.ns", "ns");
    ("noise.max_delay.words", "words");
    ("noise.injections", "count");
    ("kernel.run_ops.calls", "count");
    ("kernel.run_ops.ns", "ns");
    ("kernel.run_ops.words", "words");
    ("kernel.run_ops.ops", "count");
    ("mem.demand_faults", "count");
    ("kernel.boot.ns", "ns");
    ("mem.setup.ns", "ns");
    ("mem.setup.words", "words");
    ("mem.touch_all.ns", "ns");
    ("hw.stream.calls", "count");
    ("hw.stream.ns", "ns");
    ("mpi.allreduce.calls", "count");
    ("mpi.allreduce.ns", "ns");
    ("mpi.halo.calls", "count");
    ("mpi.halo.ns", "ns");
    ("ikc.control.calls", "count");
    ("ikc.control.ns", "ns");
    ("ikc.proxy_roundtrips", "count");
    ("ikc.thread_migrations", "count");
    ("cluster.driver.ns", "ns");
    ("cluster.driver.words", "words");
    ("cluster.clock_loops.ns", "ns");
    ("cluster.points.overhead_ns", "ns");
    ("cluster.report.ns", "ns");
    ("cluster.report.bytes", "bytes");
    ("engine.des.events", "count");
    ("engine.des.serial_ns", "ns");
    ("engine.des.events_per_s", "1/s");
    ("engine.shard.epochs", "count");
    ("engine.shard.cross_messages", "count");
    ("engine.shard.null_messages", "count");
    ("engine.shard.null_ratio", "ratio");
    ("engine.shard.vs_serial", "x");
    ("engine.pool.epoch_tasks", "count");
    ("engine.pool.epoch_steals", "count");
    ("engine.pool.epoch_failed_steals", "count");
    ("engine.pool.epoch_steal_success_pct", "%");
    ("engine.pool.cell_tasks", "count");
    ("engine.pool.cell_steals", "count");
    ("engine.pool.cell_failed_steals", "count");
    ("engine.pool.cell_steal_success_pct", "%");
    ("engine.pool.cell_busy_pct", "%");
    ("fault.events", "count");
    ("fault.recoveries", "count");
    ("fault.dead_nodes", "count");
    ("fault.driver.ns", "ns");
    ("obs.collect.overhead_pct", "%");
    ("ledger.mismatches", "count");
    ("ledger.coverage_pct", "%");
    ("ledger.overhead_pct", "%");
  ]

(* Sum of the program's own counters [subsystem/name*] over every
   kernel and node. *)
let counter coll ~subsystem ~prefix =
  List.fold_left
    (fun acc ((k : Mk_obs.Key.t), v) ->
      match v with
      | Mk_obs.Metrics.Counter n
        when k.subsystem = subsystem && String.starts_with ~prefix k.name ->
          acc + n
      | _ -> acc)
    0 (Mk_obs.Collect.bindings coll)

let pool_metrics tasks (s : Pool.stats) ~busy_ns ~wall_ns =
  let sum a = Array.fold_left ( + ) 0 a in
  let steals = sum s.steals and failed = sum s.failed_steals in
  let name m = Printf.sprintf "engine.pool.%s_%s" tasks m in
  [
    (name "tasks", float_of_int (sum s.executed));
    (name "steals", float_of_int steals);
    (name "failed_steals", float_of_int failed);
    ( name "steal_success_pct",
      if steals + failed = 0 then 0.
      else 100. *. float_of_int steals /. float_of_int (steals + failed) );
  ]
  @
  match busy_ns with
  | None -> []
  | Some b ->
      [ (name "busy_pct", 100. *. float_of_int b /. float_of_int (wall_ns * s.executors)) ]

let timed_ns f =
  let t0 = now_ns () in
  let v = f () in
  (v, now_ns () - t0)

(* Replays every cell through the ledger and checks each replayed
   record against the real driver's.  Per cell, in turn: the driver
   alone, the traced replay, [Experiment.points] with metrics off and
   with them on, so host drift falls evenly on all four, after one
   untimed driver run that sizes the per-domain scratch arrays for the
   cell.  Returns the metrics and the number of mismatching cells. *)
let trace_suite kind ~seed =
  let per_app = Workloads.suite_cells kind ~seed in
  let r = Ledger.recorder () in
  let coll = Mk_obs.Collect.create () in
  let driver_ns = ref 0 and driver_words = ref 0. in
  let points_ns = ref 0 and points_on_ns = ref 0 in
  let mismatches = ref 0 and cells = ref 0 in
  let by_label = Hashtbl.create 512 in
  List.iter
    (fun (c : Experiment.cell) ->
      ignore (Driver.run ~scenario:c.scenario ~app:c.app ~nodes:c.nodes ~seed:c.seed ());
      let reference = ref None and replayed = ref None in
      let driver () =
        let w0 = Gc.minor_words () in
        let res, dt =
          timed_ns (fun () ->
              Driver.run ~scenario:c.scenario ~app:c.app ~nodes:c.nodes ~seed:c.seed ())
        in
        driver_ns := !driver_ns + dt;
        driver_words := !driver_words +. (Gc.minor_words () -. w0);
        reference := Some res
      and replay () =
        Ledger.set_cell r (Workloads.cell_label c);
        replayed :=
          Some
            (Ledger.span (Some r) "cluster.replay" (fun () ->
                 Ledger.replay ~rec_:r ~scenario:c.scenario ~app:c.app ~nodes:c.nodes
                   ~seed:c.seed ()))
      and points_off () =
        let _, dt = timed_ns (fun () -> Experiment.points [ c ]) in
        points_ns := !points_ns + dt
      and points_on () =
        let p, dt = timed_ns (fun () -> Experiment.points ~obs:coll [ c ]) in
        points_on_ns := !points_on_ns + dt;
        Hashtbl.replace by_label (Workloads.cell_label c) (List.hd p)
      in
      (* Rotate the order from cell to cell so that no measurement
         always runs first. *)
      let steps = [| driver; replay; points_off; points_on |] in
      for k = 0 to 3 do
        steps.((k + !cells) mod 4) ()
      done;
      incr cells;
      match (!reference, !replayed) with
      | Some a, Some b when Ledger.same_result a b -> ()
      | a, b ->
          incr mismatches;
          let show = Option.fold ~none:"-" ~some:Ledger.result_to_string in
          Printf.eprintf "LEDGER MISMATCH %s\n  driver %s\n  replay %s\n%!"
            (Workloads.cell_label c) (show a) (show b))
    (List.concat_map snd per_app);
  let text, report_ns =
    timed_ns (fun () ->
        Workloads.report per_app ~point:(fun c ->
            Hashtbl.find by_label (Workloads.cell_label c)))
  in
  let dir = Filename.concat "perfbench" "out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let spans_path =
    Filename.concat dir (Printf.sprintf "spans-%s-%d.jsonl" (Workloads.name kind) seed)
  in
  Ledger.write_spans r spans_path;
  Printf.printf "spans: %s\n" spans_path;
  let layers = Ledger.layers r in
  let layer name = List.assoc_opt name layers in
  let get f name = match layer name with Some l -> f l | None -> 0. in
  let ns = get (fun l -> float_of_int l.Ledger.l_self_ns)
  and calls = get (fun l -> float_of_int l.Ledger.l_calls)
  and words = get (fun l -> l.Ledger.l_self_words) in
  let replay_ns = get (fun l -> float_of_int l.Ledger.l_dur_ns) "cluster.replay" in
  let root_self = ns "cluster.replay" in
  let count sub prefix = float_of_int (counter coll ~subsystem:sub ~prefix) in
  let pct a b = if b = 0. then 0. else 100. *. a /. b in
  ( [
      ("noise.max_delay.calls", calls "noise.max_delay");
      ("noise.max_delay.ns", ns "noise.max_delay");
      ("noise.max_delay.words", words "noise.max_delay");
      ("noise.injections", count "noise" "injections:");
      ("kernel.run_ops.calls", calls "kernel.run_ops");
      ("kernel.run_ops.ns", ns "kernel.run_ops");
      ("kernel.run_ops.words", words "kernel.run_ops");
      ("kernel.run_ops.ops", float_of_int r.Ledger.ops);
      ("mem.demand_faults", count "mem" "demand_faults");
      ("kernel.boot.ns", ns "kernel.boot");
      ("mem.setup.ns", ns "mem.setup");
      ("mem.setup.words", words "mem.setup");
      ("mem.touch_all.ns", ns "mem.touch_all");
      ("hw.stream.calls", calls "hw.stream");
      ("hw.stream.ns", ns "hw.stream");
      ("mpi.allreduce.calls", count "mpi" "allreduce_calls");
      ("mpi.allreduce.ns", ns "mpi.allreduce");
      ("mpi.halo.calls", count "mpi" "halo_calls");
      ("mpi.halo.ns", ns "mpi.halo");
      ("ikc.control.calls", calls "ikc.control");
      ("ikc.control.ns", ns "ikc.control");
      ("ikc.proxy_roundtrips", count "ikc" "proxy_roundtrips");
      ("ikc.thread_migrations", count "ikc" "thread_migrations");
      ("cluster.driver.ns", float_of_int !driver_ns);
      ("cluster.driver.words", !driver_words);
      ("cluster.clock_loops.ns", root_self);
      ("cluster.points.overhead_ns", float_of_int (!points_ns - !driver_ns));
      ("cluster.report.ns", float_of_int report_ns);
      ("cluster.report.bytes", float_of_int (String.length text));
      ( "obs.collect.overhead_pct",
        pct (float_of_int (!points_on_ns - !points_ns)) (float_of_int !points_ns) );
      ("ledger.mismatches", float_of_int !mismatches);
      ("ledger.coverage_pct", pct (replay_ns -. root_self) replay_ns);
      ( "ledger.overhead_pct",
        pct (replay_ns -. float_of_int !driver_ns) (float_of_int !driver_ns) );
    ],
    !cells,
    !mismatches )

(* One serial and one sharded DES run, then the fault cells on the
   pool through the benchmark's own closures (so that task time is
   measurable), then the fault tables checked as in a timed pass.  The
   pool's counters are read separately for the DES epoch tasks and for
   the cell tasks. *)
let trace_engine ~seed ~golden =
  let pool = make_pool () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let ck = checker golden in
  let params = Workloads.des_params () in
  let serial, serial_ns = timed_ns (fun () -> Workloads.des_serial params ~seed) in
  Hashtbl.replace ck.reference "des/serial" (Workloads.des_serial_digest serial);
  Pool.reset_stats pool;
  let (sharded, st), sharded_ns =
    timed_ns (fun () -> Workloads.des_sharded ~pool params ~seed)
  in
  let epoch_stats = Pool.stats pool in
  check ck ("des", Workloads.des_digest sharded st);
  check ck ("des/serial", Workloads.des_serial_digest sharded);
  let cells = Workloads.fault_cells ~seed in
  let jobs =
    List.concat_map (fun (c : Experiment.cell) -> List.init c.runs (fun i -> (c, i))) cells
  in
  Pool.reset_stats pool;
  let results, cells_ns =
    timed_ns (fun () ->
        Pool.parallel_map ~pool
          (fun ((c : Experiment.cell), i) ->
            timed_ns (fun () ->
                Driver.run ?faults:c.faults ~scenario:c.scenario ~app:c.app
                  ~nodes:c.nodes ~seed:(c.seed + (100 * i)) ()))
          jobs)
  in
  let cell_stats = Pool.stats pool in
  let busy = List.fold_left (fun acc (_, dt) -> acc + dt) 0 results in
  let faulted_ns =
    List.fold_left2
      (fun acc ((c : Experiment.cell), _) (_, dt) ->
        if c.faults = None then acc else acc + dt)
      0 jobs results
  in
  List.iter
    (fun (l, d) -> Hashtbl.replace ck.reference l d)
    (Workloads.fault_rows (Workloads.faults_run ~seed ()));
  List.iter (check ck) (Workloads.fault_rows (Workloads.faults_run ~pool ~seed ()));
  let f = float_of_int in
  let sum g = f (List.fold_left (fun acc (r, _) -> acc + g r) 0 results) in
  ( [
      ("engine.des.events", f st.Cluster_des.shard_events);
      ("engine.des.serial_ns", f serial_ns);
      ("engine.des.events_per_s", f st.shard_events /. (f serial_ns /. 1e9));
      ("engine.shard.epochs", f st.epochs);
      ("engine.shard.cross_messages", f st.cross_messages);
      ("engine.shard.null_messages", f st.null_messages);
      ( "engine.shard.null_ratio",
        if st.cross_messages + st.null_messages = 0 then 0.
        else f st.null_messages /. f (st.cross_messages + st.null_messages) );
      ("engine.shard.vs_serial", f serial_ns /. f sharded_ns);
      ("fault.events", sum (fun r -> r.Driver.fault_events));
      ("fault.recoveries", sum (fun r -> r.Driver.recoveries));
      ("fault.dead_nodes", sum (fun r -> r.Driver.dead_nodes));
      ("fault.driver.ns", f faulted_ns);
    ]
    (* The epoch tasks are the engine's own closures, so their busy
       time cannot be measured from here. *)
    @ pool_metrics "epoch" epoch_stats ~busy_ns:None ~wall_ns:sharded_ns
    @ pool_metrics "cell" cell_stats ~busy_ns:(Some busy) ~wall_ns:cells_ns,
    ck.attempted,
    ck.failed )

let traced kind ~seed =
  let golden = Workloads.golden kind ~seed in
  let refs = [ time_reference () ] in
  let measured, attempted, failed =
    match kind with
    | Workloads.Suite_linux | Workloads.Suite_lwk -> trace_suite kind ~seed
    | Workloads.Engine_j2 -> trace_engine ~seed ~golden
  in
  let refs = time_reference () :: refs in
  let values = ("host.ref_ns", median refs) :: measured in
  print_result ~correct:(failed = 0) ~attempted ~failed
    (List.map
       (fun (n, u) -> (n, Option.value (List.assoc_opt n values) ~default:0., u))
       per_layer)

(* ------------------------------------------------------------------ *)
(* Golden digests                                                      *)

let golden_lines ~seed =
  let emit kind (label, d) =
    Printf.printf "%s %d %s %s\n" (Workloads.name kind) seed label d
  in
  List.iter
    (fun kind ->
      match kind with
      | Workloads.Suite_linux | Workloads.Suite_lwk ->
          let per_app = Workloads.suite_cells kind ~seed in
          let points = Hashtbl.create 512 in
          List.iter
            (fun (_, cs) ->
              List.iter2
                (fun c p ->
                  Hashtbl.replace points (Workloads.cell_label c) p;
                  emit kind (Workloads.cell_label c, Workloads.point_digest p))
                cs (Experiment.points cs))
            per_app;
          emit kind
            ( "report",
              Workloads.digest
                (Workloads.report per_app ~point:(fun c ->
                     Hashtbl.find points (Workloads.cell_label c))) )
      | Workloads.Engine_j2 ->
          let params = Workloads.des_params () in
          let r, s = Workloads.des_sharded params ~seed in
          let serial = Workloads.des_serial params ~seed in
          if serial <> r then failwith "golden: sharded DES differs from the serial heap";
          emit kind ("des", Workloads.des_digest r s);
          emit kind ("des/serial", Workloads.des_serial_digest serial);
          List.iter (emit kind) (Workloads.fault_rows (Workloads.faults_run ~seed ())))
    Workloads.all

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let usage () =
  prerr_endline
    "usage: main.exe --workload (suite-linux|suite-lwk|engine-j2) --seed N \
     --seconds S --trace 0|1\n\
    \       main.exe golden --seed N";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse acc = function
    | [] -> Ok acc
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | "golden" :: rest -> parse (("mode", "golden") :: acc) rest
    | x :: _ -> Error x
  in
  match parse [] args with
  | Error x ->
      Printf.eprintf "unexpected argument %s\n" x;
      usage ()
  | Ok kv -> (
      let get k = List.assoc_opt k kv in
      let int k d =
        match get k with
        | None -> d
        | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())
      in
      let seed = int "seed" 42 in
      if get "mode" = Some "golden" then golden_lines ~seed
      else
        match Option.bind (get "workload") Workloads.of_name with
        | None -> usage ()
        | Some kind ->
            if not (Sys.file_exists Workloads.golden_path) then begin
              Printf.eprintf "golden digests not found: %s (run from the repository root)\n"
                Workloads.golden_path;
              exit 1
            end;
            if int "trace" 0 = 0 then
              timed kind ~seed ~seconds:(max 1 (int "seconds" 10))
            else traced kind ~seed)
