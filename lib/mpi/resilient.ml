type env = {
  base : Collective.cost_env;
  alive : bool array;
  extra_edge : src:int -> dst:int -> Mk_engine.Units.time;
}

let make ~base ~alive ~extra_edge = { base; alive; extra_edge }

(* The survivors, in index order, become the tree's members: with
   everyone alive this is the identity and the walk is the healthy
   one. *)
let allreduce env ~clocks ~bytes =
  let n = Array.length clocks in
  let members = Mk_engine.Scratch.int_array ~tag:"mpi.members" ~len:n ~init:0 in
  let count = ref 0 in
  for i = 0 to n - 1 do
    if env.alive.(i) then begin
      members.(!count) <- i;
      incr count
    end
  done;
  Collective.allreduce_members env.base ~extra_edge:env.extra_edge ~members
    ~count:!count ~clocks ~bytes

let halo env ~clocks ~bytes ~neighbors =
  P2p.halo_alive env.base ~alive:env.alive ~extra_edge:env.extra_edge ~clocks
    ~bytes ~neighbors
