(** Point-to-point exchanges over per-node clocks.

    [halo] models a nearest-neighbour exchange: each node swaps
    [bytes] with each of [neighbors] logical neighbours (ring offsets
    derived from a 3D decomposition) and proceeds once the slowest
    neighbour's message has arrived.  Control system calls are
    charged per message to the sender — on an LWK these offload,
    which is how a message-heavy workload like LAMMPS gives back its
    single-node advantage at scale (Section IV). *)

val neighbor_offsets : nodes:int -> neighbors:int -> int list
(** Symmetric ring offsets approximating a 3D stencil on [nodes]. *)

val halo_alive :
  Collective.cost_env ->
  alive:bool array ->
  extra_edge:(src:int -> dst:int -> Mk_engine.Units.time) ->
  clocks:Mk_engine.Units.time array ->
  bytes:int ->
  neighbors:int ->
  unit
(** The one halo loop.  Ring geometry follows [Array.length clocks]
    (ranks keep their coordinates when nodes die); only nodes with
    [alive.(i)] advance, and they wait only for live neighbours.  Each
    message pays its wire time plus [extra_edge ~src ~dst]. *)

val halo :
  Collective.cost_env ->
  clocks:Mk_engine.Units.time array ->
  bytes:int ->
  neighbors:int ->
  unit
(** In place: clocks advance to the end of the exchange.
    {!halo_alive} with every node alive and no extra edge cost. *)
