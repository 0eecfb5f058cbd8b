let neighbor_offsets ~nodes ~neighbors =
  if neighbors <= 0 then []
  else begin
    let side =
      int_of_float (Float.round (Float.cbrt (float_of_int (max 1 nodes))))
    in
    let side = max 1 side in
    let candidates = [ 1; side; side * side ] in
    let rec take n = function
      | [] -> []
      | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest
    in
    let pos = take ((neighbors + 1) / 2) candidates in
    List.concat_map (fun o -> [ o; -o ]) pos
    |> fun l -> take neighbors l
  end

(* Latest arrival at node [i] over its live neighbours, starting from
   its own clock plus its send cost.  Top-level recursion with every
   input passed explicitly: this runs once per node per halo, and a
   capturing fold closure per node was pure minor-heap churn. *)
let rec arrival env ~alive ~extra_edge ~before ~n ~i ~bytes ~send_cost acc =
  function
  | [] -> acc
  | off :: rest ->
      let j = (((i + off) mod n) + n) mod n in
      let acc =
        if not alive.(j) then acc
        else
          max acc
            (before.(j) + send_cost
            + Mk_fabric.Fabric.wire_time env.Collective.fabric ~src:j ~dst:i
                ~bytes
            + extra_edge ~src:j ~dst:i)
      in
      arrival env ~alive ~extra_edge ~before ~n ~i ~bytes ~send_cost acc rest

let halo_alive env ~alive ~extra_edge ~clocks ~bytes ~neighbors =
  let n = Array.length clocks in
  if n > 1 && neighbors > 0 then begin
    Mk_obs.Hook.count ~subsystem:"mpi" ~name:"halo_calls" 1;
    let offsets = neighbor_offsets ~nodes:n ~neighbors in
    let send_cost = List.length offsets * List.fold_left
                      (fun acc s -> acc + env.Collective.syscall_cost s)
                      0
                      (Mk_fabric.Nic.control_syscalls
                         (Mk_fabric.Fabric.nic env.Collective.fabric)
                         ~bytes)
    in
    (* Domain-local scratch instead of a fresh copy: the halo runs
       once per sync point per iteration per run, and the copy of a
       2048-node clock array was pure minor-heap churn. *)
    let before = Mk_engine.Scratch.int_array ~tag:"p2p.halo.before" ~len:n ~init:0 in
    Array.blit clocks 0 before 0 n;
    for i = 0 to n - 1 do
      if alive.(i) then
        clocks.(i) <-
          arrival env ~alive ~extra_edge ~before ~n ~i ~bytes ~send_cost
            (before.(i) + send_cost) offsets
    done
  end

let halo env ~clocks ~bytes ~neighbors =
  halo_alive env
    ~alive:(Array.make (Array.length clocks) true)
    ~extra_edge:(fun ~src:_ ~dst:_ -> 0) ~clocks ~bytes ~neighbors
