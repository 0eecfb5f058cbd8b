(* The benchmark's workloads: inputs generated from the seed, the
   simulated outputs each one checks, and the digests those outputs
   are compared against. *)

open Mk_cluster
module Json = Mk_engine.Json

type kind = Suite_linux | Suite_lwk | Engine_j2

let all = [ Suite_linux; Suite_lwk; Engine_j2 ]

let name = function
  | Suite_linux -> "suite-linux"
  | Suite_lwk -> "suite-lwk"
  | Engine_j2 -> "engine-j2"

let of_name s = List.find_opt (fun k -> name k = s) all

let digest s = Digest.to_hex (Digest.string s)

(* ------------------------------------------------------------------ *)
(* Suite cells                                                         *)

(* The [simos suite] cells of one kernel family, one repetition each,
   grouped by application in the suite's order. *)
let suite_cells kind ~seed =
  let keep (c : Experiment.cell) =
    let linux = c.scenario.Scenario.label = Scenario.linux.Scenario.label in
    match kind with
    | Suite_linux -> linux
    | Suite_lwk -> not linux
    | Engine_j2 -> false
  in
  List.map
    (fun (app, cells) -> (app, List.filter keep cells))
    (Experiment.suite_cells ~runs:1 ~seed ())

let cell_label (c : Experiment.cell) =
  Printf.sprintf "%s/%s/%d" c.app.Mk_apps.App.name c.scenario.Scenario.label c.nodes

let point_digest p = digest (Json.to_string (Experiment.point_to_json p))

(* Iterations the driver simulates before extrapolating. *)
let sim_iterations (app : Mk_apps.App.t) = max 2 (min app.sim_iterations app.iterations)

(* Simulated node-iterations one cell advances. *)
let node_iters (c : Experiment.cell) = c.runs * c.nodes * sim_iterations c.app

(* The suite's [Report] rendering: per application, the FOM table of
   every scenario the workload ran, from each cell's point. *)
let report per_app ~point =
  String.concat ""
    (List.map
       (fun ((app : Mk_apps.App.t), cells) ->
         let labels =
           List.sort_uniq compare
             (List.map (fun (c : Experiment.cell) -> c.scenario.Scenario.label) cells)
         in
         let series =
           List.map
             (fun l ->
               {
                 Experiment.scenario_label = l;
                 points =
                   List.filter_map
                     (fun (c : Experiment.cell) ->
                       if c.scenario.Scenario.label = l then Some (point c) else None)
                     cells;
               })
             labels
         in
         Report.fom_table ~app series)
       per_app)

(* ------------------------------------------------------------------ *)
(* Event-driven tier                                                   *)

let des_nodes = 32_768
let des_iterations = 10
let des_shards = 2

type des_params = { fabric : Mk_fabric.Fabric.t; profile : Mk_noise.Profile.t }

(* mOS's light noise profile keeps every iteration's shift irregular,
   so the closed-form fast-forward never engages and every event runs
   through the heaps. *)
let des_params () =
  { fabric = Mk_fabric.Fabric.make ~nodes:des_nodes (); profile = Mk_noise.Profile.mos_lwk }

let des_serial p ~seed =
  Cluster_des.allreduce_loop ~nodes:des_nodes ~ranks_per_node:64 ~threads_per_rank:1
    ~window:(2 * Mk_engine.Units.ms) ~iterations:des_iterations ~bytes:8 ~profile:p.profile
    ~fabric:p.fabric ~seed

let des_sharded ?pool p ~seed =
  Cluster_des.sharded_allreduce_loop ?pool ~shards:des_shards ~nodes:des_nodes
    ~ranks_per_node:64 ~threads_per_rank:1 ~window:(2 * Mk_engine.Units.ms)
    ~iterations:des_iterations ~bytes:8 ~profile:p.profile ~fabric:p.fabric ~seed ()

let des_node_iters = des_nodes * des_iterations

(* The checked output of a sharded run: its result and the protocol
   counters.  [horizon_stalls] is left out: under two executors it
   varies from pass to pass (the inbox drain at the epoch barrier
   races with the peers' pushes), so the timed run reports its spread
   instead of checking it. *)
let des_digest (r : Cluster_des.result) (s : Cluster_des.sharding) =
  digest
    (Printf.sprintf "completion=%d messages=%d events=%d cross=%d null=%d epochs=%d ff=%d"
       r.completion r.messages s.shard_events s.cross_messages s.null_messages s.epochs
       s.fast_forwarded)

(* The part of a sharded run that must equal the serial heap's. *)
let des_serial_digest (r : Cluster_des.result) =
  digest (Printf.sprintf "%d/%d" r.completion r.messages)

(* ------------------------------------------------------------------ *)
(* Fault degradation tables                                            *)

let fault_preset = "mixed"
let fault_tables = [ ("hpcg", 64); ("minife", 256) ]

let app_exn n =
  match Mk_apps.Registry.find n with
  | Some a -> a
  | None -> invalid_arg ("perfbench: unknown app " ^ n)

let faults_run ?pool ~seed () =
  List.map
    (fun (a, nodes) ->
      Degradation.run ?pool ~app:(app_exn a) ~nodes ~preset:fault_preset ~seed ())
    fault_tables

(* One checked unit per (table, scenario) row. *)
let fault_rows (tables : Degradation.table list) =
  List.concat_map
    (fun (t : Degradation.table) ->
      List.map
        (fun (row : Degradation.row) ->
          ( Printf.sprintf "%s@%d/%s" t.app t.nodes row.scenario,
            digest
              (String.concat ";"
                 (Printf.sprintf "%h" row.healthy_fom
                 :: List.map
                      (fun (c : Degradation.cell) ->
                        Printf.sprintf "%h:%h:%h:%d:%d:%d" c.rate c.fom c.vs_healthy
                          c.dead_nodes c.recoveries c.fault_events)
                      row.cells)) ))
        t.rows)
    tables

(* The same cells [Degradation.run] builds, for the traced run's
   bench-owned fan-out. *)
let fault_cells ~seed =
  List.concat_map
    (fun (a, nodes) ->
      let app = app_exn a in
      let iterations = sim_iterations app in
      let plan rate =
        match Mk_fault.Plan.preset_spec fault_preset ~rate with
        | Some spec -> Mk_fault.Plan.generate ~spec ~nodes ~iterations ~seed:(seed + 7919)
        | None -> invalid_arg "perfbench: unknown fault preset"
      in
      List.concat_map
        (fun scenario ->
          List.map
            (fun rate ->
              {
                Experiment.scenario;
                app;
                nodes;
                faults = Option.map plan rate;
                runs = Experiment.default_runs;
                seed;
              })
            (None :: List.map Option.some Degradation.default_rates))
        Scenario.trio)
    fault_tables

let faults_node_iters ~seed =
  List.fold_left (fun acc c -> acc + node_iters c) 0 (fault_cells ~seed)

(* ------------------------------------------------------------------ *)
(* Golden digests                                                      *)

(* One line per checked output: [workload seed label digest].  Paths
   are relative to the repository root, where the benchmark runs. *)
let golden_path = Filename.concat "perfbench" "golden.txt"

(* The digests of one workload at one seed, or [None] when the seed
   has none. *)
let golden kind ~seed =
  let w = name kind in
  let t = Hashtbl.create 512 in
  In_channel.with_open_text golden_path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
            (match String.split_on_char ' ' (String.trim line) with
            | [ w'; s; label; d ] when w' = w && int_of_string_opt s = Some seed ->
                Hashtbl.replace t label d
            | _ -> ());
            go ()
      in
      go ());
  if Hashtbl.length t = 0 then None else Some t
