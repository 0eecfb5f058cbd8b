(** Fault-aware {!Collective.allreduce} and {!P2p.halo}.

    Same max-plus clock semantics, over the same code: the allreduce
    runs {!Collective.allreduce_members} and the halo runs
    {!P2p.halo_alive}, with two additions:

    - {b routing around crashes}: the binomial reduce/broadcast tree
      is rebuilt over the surviving nodes (they become the tree's
      members in index order, so the tree shape follows the survivor
      count), and a halo exchange simply stops waiting for dead
      neighbours — the slowdown of a thinner tree {e emerges} from
      the composition, nothing is hard-coded;
    - {b per-edge surcharges}: the [extra_edge] callback prices
      transient link faults (flapping sends retried under the MPI
      policy) without this module knowing why.

    Crash detection (survivors timing out on a dead peer) is priced
    by the caller (the cluster driver) when the crash happens.

    The cluster driver synchronises through this module on every run:
    a fault-free run is the fault path with every node alive and a
    zero [extra_edge], which is the healthy walk over the same
    integers. *)

type env

val make :
  base:Collective.cost_env ->
  alive:bool array ->
  extra_edge:(src:int -> dst:int -> Mk_engine.Units.time) ->
  env
(** [alive] is shared with the caller (the driver's fault state
    mutates it as the plan unfolds). *)

val allreduce :
  env -> clocks:Mk_engine.Units.time array -> bytes:int -> unit
(** Dead nodes' clocks are left frozen; survivors pay the compacted
    tree. *)

val halo :
  env ->
  clocks:Mk_engine.Units.time array ->
  bytes:int ->
  neighbors:int ->
  unit
(** Ring geometry is unchanged (ranks keep their coordinates); dead
    neighbours are simply no longer waited for. *)
