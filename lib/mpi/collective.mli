(** Collective operations over per-node clocks.

    The cluster tier tracks one virtual clock per node (the moment
    its slowest rank reaches the next synchronisation point).  A
    collective transforms the clock array in place: a binomial-tree
    reduce followed by a broadcast, each tree edge paying the fabric
    wire time plus whatever control system calls the sending OS
    needs (the [syscall_cost] callback prices them — local on Linux,
    offloaded on an LWK).

    This max-plus composition is where OS noise amplifies: a single
    straggler delays its whole subtree, so the expected completion
    grows with both scale and per-node jitter — the mechanism behind
    Figure 5(b).

    There is one tree walk, {!allreduce_members}, over a set of member
    nodes: {!allreduce} runs it over every node, and
    {!Resilient.allreduce} over the survivors of a fault plan. *)

type cost_env = {
  fabric : Mk_fabric.Fabric.t;
  syscall_cost : Mk_syscall.Sysno.t -> Mk_engine.Units.time;
  intra_ranks : int;  (** ranks per node taking part *)
}

val edge_cost : cost_env -> src:int -> dst:int -> bytes:int -> Mk_engine.Units.time
(** One tree edge: wire + control-syscall time. *)

val allreduce_members :
  cost_env ->
  extra_edge:(src:int -> dst:int -> Mk_engine.Units.time) ->
  members:int array ->
  count:int ->
  clocks:Mk_engine.Units.time array ->
  bytes:int ->
  unit
(** The one allreduce walk.  [members.(0 .. count-1)] are the node
    indices taking part, in tree-position order: [members.(p)] plays
    position [p] of the binomial tree, so the tree shape follows
    [count], not [Array.length clocks].  Every tree edge pays
    {!edge_cost} plus [extra_edge ~src ~dst].  Clocks of nodes that are
    not members are left untouched; with [count = 0] nothing moves.
    Raises [Invalid_argument] when [clocks] is empty. *)

val allreduce :
  cost_env -> clocks:Mk_engine.Units.time array -> bytes:int -> unit
(** In place: after return every clock holds the time at which that
    node leaves the allreduce (intra-node reduce, inter-node
    reduce+broadcast tree, intra-node broadcast).  {!allreduce_members}
    with every node a member, in index order, and no extra edge cost. *)
