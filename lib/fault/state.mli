(** Mutable per-run view of an unfolding fault plan.

    The cluster driver creates one state per run, calls
    {!begin_iteration} at the top of every simulated iteration, and
    reads the per-node accessors when pricing compute windows, offload
    service and fabric traffic.  Transient faults (link flap, NIC
    stall, proxy crash) last exactly one iteration; daemon hangs last
    their scheduled duration; crashes, core/link degradation and
    thread loss are permanent.

    The state does no pricing itself — it only answers "what is broken
    on node [n] right now"; the containment semantics (what a broken
    component costs on each kernel) live in the driver. *)

type t

val make : plan:Plan.t -> nodes:int -> t
(** Events whose [node] is outside [0, nodes) are ignored. *)

val begin_iteration : t -> iteration:int -> unit
(** Clears last iteration's transient faults, ages daemon hangs, then
    applies this iteration's events.  Iterations must be visited in
    increasing order starting at 0; events scheduled between two
    visited iterations are applied at the later visit. *)

(** {1 Per-node queries} (valid for the current iteration) *)

val alive_array : t -> bool array  (** shared, do not mutate *)

val alive_count : t -> int

val compute_factors : t -> float array
(** Per node, >= 1.0; product of its core-degrade events.  Shared, do
    not mutate.  An array rather than a per-node call: a float returned
    across the module boundary is boxed on every call. *)

val daemon_hung : t -> int -> bool
val link_factors : t -> float array
(** Per node, >= 1.0; product of its link-degrade events.  Shared, do
    not mutate. *)

val flaps : t -> int array
(** Per node, the failed send attempts each message from it suffers
    this iteration (0 when the link is healthy).  Shared, do not
    mutate. *)

val nic_extra : t -> int -> Mk_engine.Units.time
(** Added control-path latency per message this iteration. *)

val proxy_down : t -> int -> bool
val thread_lost : t -> int -> bool

(** {1 Run-level bookkeeping} *)

val take_newly_crashed : t -> int list
(** Nodes that crashed since the last call; the caller charges the
    survivors one detection round per crash.  Clears the list. *)

val faulted : t -> bool
(** Any fault active this iteration or any permanent damage? When
    false, the iteration must price exactly like a healthy one. *)

val events_applied : t -> int
val dead_count : t -> int
