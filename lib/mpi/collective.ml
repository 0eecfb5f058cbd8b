type cost_env = {
  fabric : Mk_fabric.Fabric.t;
  syscall_cost : Mk_syscall.Sysno.t -> Mk_engine.Units.time;
  intra_ranks : int;
}

(* Top-level recursion rather than a fold with a capturing closure:
   edge costing runs once per tree edge per collective, and at 2048
   nodes the closure and the (wire, control) tuple of
   [Fabric.message] were the simulator's hottest allocations. *)
let rec add_control_costs env acc = function
  | [] -> acc
  | s :: rest -> add_control_costs env (acc + env.syscall_cost s) rest

let edge_cost env ~src ~dst ~bytes =
  let wire = Mk_fabric.Fabric.wire_time env.fabric ~src ~dst ~bytes in
  if src = dst then wire
  else
    add_control_costs env wire
      (Mk_fabric.Nic.control_syscalls
         (Mk_fabric.Fabric.nic env.fabric)
         ~bytes)

(* members.(i) plays tree position i: position 0 is the root, and the
   tree shape follows the member count, not the node count. *)
let allreduce_members env ~extra_edge ~members ~count ~clocks ~bytes =
  if Array.length clocks = 0 then invalid_arg "Collective.allreduce: no nodes";
  Mk_obs.Hook.count ~subsystem:"mpi" ~name:"allreduce_calls" 1;
  if count > 0 then begin
    let intra = Shm.intra_allreduce ~ranks:env.intra_ranks ~bytes in
    let half = intra / 2 in
    (* Local reduction to each node's leader. *)
    for p = 0 to count - 1 do
      let i = members.(p) in
      clocks.(i) <- clocks.(i) + half
    done;
    (* Binomial-tree reduce towards position 0. *)
    let k = ref 1 in
    while !k < count do
      let p = ref 0 in
      while !p < count do
        let q = !p + !k in
        if q < count then begin
          let i = members.(!p) and j = members.(q) in
          let c = edge_cost env ~src:j ~dst:i ~bytes + extra_edge ~src:j ~dst:i in
          clocks.(i) <- max clocks.(i) (clocks.(j) + c)
        end;
        p := !p + (2 * !k)
      done;
      k := !k * 2
    done;
    (* Broadcast back down the same tree. *)
    let k = ref 1 in
    while !k * 2 < count do
      k := !k * 2
    done;
    while !k >= 1 do
      let p = ref 0 in
      while !p < count do
        let q = !p + !k in
        if q < count then begin
          let i = members.(!p) and j = members.(q) in
          let c = edge_cost env ~src:i ~dst:j ~bytes + extra_edge ~src:i ~dst:j in
          clocks.(j) <- max clocks.(j) (clocks.(i) + c)
        end;
        p := !p + (2 * !k)
      done;
      k := !k / 2
    done;
    (* Local broadcast to the node's ranks. *)
    for p = 0 to count - 1 do
      let i = members.(p) in
      clocks.(i) <- clocks.(i) + (intra - half)
    done
  end

let no_extra ~src:_ ~dst:_ = 0

let allreduce env ~clocks ~bytes =
  let n = Array.length clocks in
  let members = Mk_engine.Scratch.int_array ~tag:"mpi.members" ~len:n ~init:0 in
  for i = 0 to n - 1 do
    members.(i) <- i
  done;
  allreduce_members env ~extra_edge:no_extra ~members ~count:n ~clocks ~bytes
