(* The per-layer ledger: a span recorder plus a replay of one
   fault-free [Mk_cluster.Driver.run] through the layers' public
   functions, in the driver's order, with every layer call wrapped in
   a span.  The replay returns the same [Driver.result] record, so a
   caller can check it field for field against the real driver and
   know the spans measured the program that actually runs. *)

open Mk_cluster
module Units = Mk_engine.Units

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  name : string;
  cell : string;  (** request id: the cell being replayed *)
  parent : int;  (** index of the enclosing span, -1 at the root *)
  start_ns : int;
  dur_ns : int;
  self_ns : int;  (** [dur_ns] minus the time its child spans cover *)
  self_words : float;
  calls : int;  (** layer calls the span batches *)
}

type frame = {
  f_id : int;
  f_name : string;
  f_parent : int;
  f_start : int;
  f_words : float;
  f_calls : int;
  mutable child_ns : int;
  mutable child_words : float;
}

type recorder = {
  mutable spans : span list;  (** closed spans, most recent first *)
  mutable next_id : int;
  mutable stack : frame list;
  mutable cell : string;
  mutable ops : int;  (** heap-trace operations replayed, over all ranks *)
}

let recorder () = { spans = []; next_id = 0; stack = []; cell = ""; ops = 0 }
let set_cell r cell = r.cell <- cell

let enter r name ~calls =
  let parent = match r.stack with [] -> -1 | f :: _ -> f.f_id in
  let f =
    {
      f_id = r.next_id;
      f_name = name;
      f_parent = parent;
      f_start = now_ns ();
      f_words = Gc.minor_words ();
      f_calls = calls;
      child_ns = 0;
      child_words = 0.;
    }
  in
  r.next_id <- r.next_id + 1;
  r.stack <- f :: r.stack

let leave r =
  let stop = now_ns () and words = Gc.minor_words () in
  match r.stack with
  | [] -> invalid_arg "Ledger.leave: no open span"
  | f :: rest ->
      let dur = stop - f.f_start and w = words -. f.f_words in
      r.spans <-
        {
          id = f.f_id;
          name = f.f_name;
          cell = r.cell;
          parent = f.f_parent;
          start_ns = f.f_start;
          dur_ns = dur;
          self_ns = dur - f.child_ns;
          self_words = w -. f.child_words;
          calls = f.f_calls;
        }
        :: r.spans;
      r.stack <- rest;
      (match rest with
      | p :: _ ->
          p.child_ns <- p.child_ns + dur;
          p.child_words <- p.child_words +. w
      | [] -> ())

(* [span] with no recorder is a plain call: the faithfulness test and
   the guard run the replay bare as well as traced. *)
let span r name ?(calls = 1) f =
  match r with
  | None -> f ()
  | Some r ->
      enter r name ~calls;
      let v = f () in
      leave r;
      v

(* Every span as one JSON line, in start order. *)
let write_spans r path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"parent\": %d, \"cell\": %S, \"name\": %S, \"start_ns\": %d, \
             \"dur_ns\": %d, \"self_ns\": %d, \"self_words\": %.0f, \"calls\": %d}\n"
            s.id s.parent s.cell s.name s.start_ns s.dur_ns s.self_ns s.self_words s.calls)
        (List.sort (fun a b -> compare a.id b.id) r.spans))

type layer = { l_calls : int; l_self_ns : int; l_self_words : float; l_dur_ns : int }

(* Totals per span name, sorted by name. *)
let layers r =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let l =
        Option.value (Hashtbl.find_opt tbl s.name)
          ~default:{ l_calls = 0; l_self_ns = 0; l_self_words = 0.; l_dur_ns = 0 }
      in
      Hashtbl.replace tbl s.name
        {
          l_calls = l.l_calls + s.calls;
          l_self_ns = l.l_self_ns + s.self_ns;
          l_self_words = l.l_self_words +. s.self_words;
          l_dur_ns = l.l_dur_ns + s.dur_ns;
        })
    r.spans;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* ------------------------------------------------------------------ *)
(* Replay of Driver.run (no faults, no recorder, default NIC)          *)

type perturbation = Faithful | Drop_touch_all

let max_array a = Array.fold_left max min_int a

let setup_memory node (app : Mk_apps.App.t) ~nodes =
  let os = Mk_kernel.Node.os node in
  let ranks = Mk_kernel.Node.ranks node in
  let linux_ddr = app.linux_ddr_only && os.Mk_kernel.Os.kind = Mk_kernel.Os.Linux in
  let footprints =
    Mk_engine.Scratch.int_array ~tag:"driver.footprints" ~len:ranks ~init:0
  in
  let demands = Mk_engine.Scratch.int_array ~tag:"driver.demands" ~len:ranks ~init:0 in
  for r = 0 to ranks - 1 do
    footprints.(r) <- app.footprint_per_rank ~nodes ~local_rank:r;
    demands.(r) <- footprints.(r) + app.heap_per_rank
  done;
  let total_footprint = Array.fold_left ( + ) 0 demands in
  let mcdram_free =
    Mk_mem.Phys.free_bytes_of_kind os.Mk_kernel.Os.phys Mk_hw.Memory_kind.Mcdram
  in
  if
    (not linux_ddr)
    && total_footprint > mcdram_free
    && os.Mk_kernel.Os.kind <> Mk_kernel.Os.Mos_kind
  then begin
    let numa = Mk_hw.Topology.numa os.Mk_kernel.Os.topo in
    let quadrant_ranks = Hashtbl.create 8 in
    for rank = 0 to ranks - 1 do
      let home = (Mk_kernel.Node.rank_state node rank).Mk_kernel.Node.home in
      Hashtbl.replace quadrant_ranks home
        (1 + Option.value (Hashtbl.find_opt quadrant_ranks home) ~default:0)
    done;
    for rank = 0 to ranks - 1 do
      let share =
        int_of_float
          (float_of_int demands.(rank)
          *. float_of_int mcdram_free /. float_of_int total_footprint)
      in
      let share =
        if os.Mk_kernel.Os.kind <> Mk_kernel.Os.Linux then share
        else begin
          let home = (Mk_kernel.Node.rank_state node rank).Mk_kernel.Node.home in
          let local_cap =
            match Mk_hw.Numa.nearest numa ~from:home ~kind:Mk_hw.Memory_kind.Mcdram with
            | Some d -> Mk_hw.Numa.capacity numa d
            | None -> 0
          in
          let peers =
            max 1 (Option.value (Hashtbl.find_opt quadrant_ranks home) ~default:1)
          in
          min share (local_cap / peers)
        end
      in
      Mk_mem.Address_space.set_mcdram_quota
        (Mk_kernel.Node.address_space node ~rank)
        (Some share)
    done
  end;
  let worst = ref 0 in
  for rank = 0 to ranks - 1 do
    let st = Mk_kernel.Node.rank_state node rank in
    let asp = Mk_kernel.Node.address_space node ~rank in
    let bytes = footprints.(rank) in
    let policy =
      if linux_ddr then Some (Mk_mem.Policy.Ddr_only { home = st.Mk_kernel.Node.home })
      else None
    in
    let cost =
      match
        Mk_mem.Address_space.mmap asp ~bytes ~backing:Mk_mem.Vma.Anonymous ?policy ()
      with
      | Ok (addr, c) -> c + Mk_mem.Address_space.touch asp ~addr ~bytes ~concurrency:1
      | Error `Enomem -> 0
    in
    if cost > !worst then worst := cost
  done;
  !worst

let stream_cost node ~bytes =
  let worst = ref 0 in
  for rank = 0 to Mk_kernel.Node.ranks node - 1 do
    let asp = Mk_kernel.Node.address_space node ~rank in
    let placement =
      Mk_hw.Bandwidth.mixed ~mcdram_fraction:(Mk_mem.Address_space.mcdram_fraction asp)
    in
    let base =
      Mk_hw.Bandwidth.stream_time ~bytes placement ~ranks:(Mk_kernel.Node.ranks node)
    in
    let t = int_of_float (float_of_int base *. Mk_mem.Address_space.tlb_factor asp) in
    if t > !worst then worst := t
  done;
  !worst

let syscall_cost os sysno =
  match Mk_kernel.Os.syscall_time os ~core:10 sysno with Ok t -> t | Error `Enosys -> 0

let halo_control_cost os ~ranks_per_node ~msgs_per_node ~controls =
  if controls = [] || msgs_per_node = 0 then 0
  else begin
    let per_msg = List.fold_left (fun acc s -> acc + syscall_cost os s) 0 controls in
    let per_rank_msgs = (msgs_per_node + ranks_per_node - 1) / ranks_per_node in
    let serial = per_rank_msgs * per_msg in
    match os.Mk_kernel.Os.offload with
    | None -> serial
    | Some _ ->
        let service =
          List.fold_left (fun acc s -> acc + Mk_syscall.Cost.local s) 0 controls
        in
        let linux_cores = max 1 (List.length os.Mk_kernel.Os.os_cores) in
        max serial (msgs_per_node * service / linux_cores)
  end

let replay ?(perturb = Faithful) ?rec_ ~(scenario : Scenario.t) ~(app : Mk_apps.App.t)
    ~nodes ~seed () =
  let span name ?calls f = span rec_ name ?calls f in
  let ranks_per_node = app.ranks_per_node in
  let os, node =
    span "kernel.boot" (fun () ->
        let os = scenario.Scenario.make () in
        ( os,
          Mk_kernel.Node.boot ~os ~ranks:ranks_per_node
            ~threads_per_rank:app.threads_per_rank ~seed ))
  in
  let stragglers = ranks_per_node * app.threads_per_rank in
  let root_rng = Mk_engine.Rng.create (seed * 7919) in
  let node_rngs = Array.init nodes (fun n -> Mk_engine.Rng.split root_rng (1000 + n)) in
  let fabric = Mk_fabric.Fabric.make ~nic:(Mk_fabric.Nic.make ()) ~nodes () in
  let nic = Mk_fabric.Fabric.nic fabric in
  let profile = os.Mk_kernel.Os.app_noise in
  let setup_mem, shm_setup =
    span "mem.setup" (fun () ->
        let m = setup_memory node app ~nodes in
        let shm =
          Mk_kernel.Node.shm_window node ~bytes_per_rank:app.shm_bytes_per_rank
        in
        (m, Array.fold_left max 0 shm))
  in
  let replay_trace ~iteration =
    match app.trace with
    | None -> 0
    | Some trace ->
        span "kernel.run_ops" ~calls:ranks_per_node (fun () ->
            let ops = trace ~nodes ~iteration in
            Option.iter
              (fun r -> r.ops <- r.ops + (ranks_per_node * List.length ops))
              rec_;
            let worst = ref 0 in
            for rank = 0 to ranks_per_node - 1 do
              let c = Mk_kernel.Node.run_ops node ~rank ops in
              if c > !worst then worst := c
            done;
            !worst)
  in
  let trace_setup = replay_trace ~iteration:(-1) in
  let setup_time = setup_mem + shm_setup + trace_setup in
  let phases = app.iteration ~nodes in
  let yields =
    List.fold_left (fun acc -> function Mk_apps.App.Yields n -> acc + n | _ -> acc) 0 phases
  in
  let yield_cost =
    span "ikc.control" (fun () -> yields * syscall_cost os Mk_syscall.Sysno.Sched_yield)
  in
  let syncs =
    List.concat_map
      (function
        | Mk_apps.App.Allreduce { bytes; count } ->
            List.init count (fun _ -> `Allreduce bytes)
        | Mk_apps.App.Halo { bytes; neighbors; msgs_per_node } ->
            [ `Halo (bytes, neighbors, msgs_per_node) ]
        | Mk_apps.App.Stream _ | Mk_apps.App.Cpu _ | Mk_apps.App.Yields _ -> [])
      phases
  in
  let nsync = max 1 (List.length syncs) in
  let env =
    {
      Mk_mpi.Collective.fabric;
      syscall_cost = syscall_cost os;
      intra_ranks = ranks_per_node;
    }
  in
  let halo_env = { env with Mk_mpi.Collective.syscall_cost = (fun _ -> 0) } in
  let offloads_per_iteration =
    if Mk_kernel.Os.is_lwk os then
      List.fold_left
        (fun acc -> function
          | `Halo (bytes, _, msgs) ->
              acc + (msgs * List.length (Mk_fabric.Nic.control_syscalls nic ~bytes))
          | `Allreduce _ -> acc)
        0 syncs
    else 0
  in
  let stream_phases =
    List.length (List.filter (function Mk_apps.App.Stream _ -> true | _ -> false) phases)
  in
  let clocks =
    Mk_engine.Scratch.int_array ~tag:"driver.clocks" ~len:nodes ~init:setup_time
  in
  let skews = Mk_engine.Scratch.int_array ~tag:"perfbench.skews" ~len:nodes ~init:0 in
  let sim_iters = max 2 (min app.sim_iterations app.iterations) in
  let iter_durations =
    Mk_engine.Scratch.int_array ~tag:"driver.iter_durations" ~len:sim_iters ~init:0
  in
  (* Per-node noise draws, batched into one span per synchronisation:
     a single draw on a silent profile is shorter than the clock
     resolution. *)
  let draw_skews ~dur =
    span "noise.max_delay" ~calls:nodes (fun () ->
        for n = 0 to nodes - 1 do
          skews.(n) <-
            Mk_noise.Injector.max_delay profile node_rngs.(n) ~dur ~ranks:stragglers
        done)
  in
  let prev_sync = ref Units.us in
  for iter = 0 to sim_iters - 1 do
    let start = max_array clocks in
    let compute =
      span "hw.stream" ~calls:(stream_phases * ranks_per_node) (fun () ->
          List.fold_left
            (fun acc phase ->
              match phase with
              | Mk_apps.App.Stream bytes -> acc + stream_cost node ~bytes
              | Mk_apps.App.Cpu t -> acc + t
              | Mk_apps.App.Allreduce _ | Mk_apps.App.Halo _ | Mk_apps.App.Yields _ -> acc)
            0 phases)
    in
    let window = compute / nsync in
    if
      iter = 0
      && (not os.Mk_kernel.Os.options.Mk_kernel.Os.mpol_shm_premap)
      && perturb <> Drop_touch_all
    then begin
      let worst =
        span "mem.touch_all" ~calls:ranks_per_node (fun () ->
            let worst = ref 0 in
            for rank = 0 to ranks_per_node - 1 do
              let asp = Mk_kernel.Node.address_space node ~rank in
              let c = Mk_mem.Address_space.touch_all asp ~concurrency:ranks_per_node in
              if c > !worst then worst := c
            done;
            !worst)
      in
      Array.iteri (fun n c -> clocks.(n) <- c + worst) clocks
    end;
    let fixed = replay_trace ~iteration:iter + yield_cost in
    Array.iteri (fun n c -> clocks.(n) <- c + fixed) clocks;
    let sync_cost_acc = ref 0 in
    List.iter
      (fun sync ->
        draw_skews ~dur:(window + !prev_sync);
        Array.iteri (fun n c -> clocks.(n) <- c + window + skews.(n)) clocks;
        let before = max_array clocks in
        (match sync with
        | `Allreduce bytes ->
            span "mpi.allreduce" (fun () -> Mk_mpi.Collective.allreduce env ~clocks ~bytes)
        | `Halo (bytes, neighbors, msgs_per_node) ->
            span "mpi.halo" (fun () -> Mk_mpi.P2p.halo halo_env ~clocks ~bytes ~neighbors);
            if nodes > 1 then begin
              let control =
                span "ikc.control" (fun () ->
                    halo_control_cost os ~ranks_per_node ~msgs_per_node
                      ~controls:(Mk_fabric.Nic.control_syscalls nic ~bytes))
              in
              Array.iteri (fun n c -> clocks.(n) <- c + control) clocks
            end);
        sync_cost_acc := !sync_cost_acc + (max_array clocks - before))
      syncs;
    if syncs = [] then begin
      draw_skews ~dur:window;
      Array.iteri (fun n c -> clocks.(n) <- c + window + skews.(n)) clocks
    end;
    let remainder = compute - (window * nsync) in
    if remainder > 0 then Array.iteri (fun n c -> clocks.(n) <- c + remainder) clocks;
    prev_sync := !sync_cost_acc / nsync;
    iter_durations.(iter) <- max_array clocks - start
  done;
  let first_iteration = iter_durations.(0) in
  let steady_sum = ref 0 in
  for i = 1 to sim_iters - 1 do
    steady_sum := !steady_sum + iter_durations.(i)
  done;
  let steady_iteration = !steady_sum / max 1 (sim_iters - 1) in
  let solve_time = first_iteration + (steady_iteration * (app.iterations - 1)) in
  let total_time = setup_time + solve_time in
  let backed = ref 0 and mcdram = ref 0 and faults = ref 0 in
  for rank = 0 to ranks_per_node - 1 do
    let asp = Mk_kernel.Node.address_space node ~rank in
    backed := !backed + Mk_mem.Address_space.backed_bytes asp;
    mcdram := !mcdram + Mk_mem.Address_space.mcdram_bytes asp;
    faults := !faults + (Mk_mem.Address_space.stats asp).Mk_mem.Address_space.faults
  done;
  {
    Driver.nodes;
    total_time;
    solve_time;
    setup_time;
    first_iteration;
    steady_iteration;
    fom = Mk_apps.App.fom app ~nodes ~total_time:solve_time;
    mcdram_fraction =
      (if !backed = 0 then 1.0 else float_of_int !mcdram /. float_of_int !backed);
    faults = !faults;
    offloads_per_iteration;
    failures = Mk_kernel.Node.failures node;
    fault_events = 0;
    dead_nodes = 0;
    recoveries = 0;
  }

(* Field-for-field comparison; [compare] so that a NaN figure of merit
   on both sides still counts as equal. *)
let same_result (a : Driver.result) (b : Driver.result) = compare a b = 0

let result_to_string (r : Driver.result) =
  Printf.sprintf
    "nodes=%d total=%d solve=%d setup=%d first=%d steady=%d fom=%h mcdram=%h \
     faults=%d offloads=%d failures=%d fault_events=%d dead=%d recoveries=%d"
    r.nodes r.total_time r.solve_time r.setup_time r.first_iteration r.steady_iteration
    r.fom r.mcdram_fraction r.faults r.offloads_per_iteration r.failures r.fault_events
    r.dead_nodes r.recoveries
