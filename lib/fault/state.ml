type t = {
  nodes : int;
  plan : Plan.t;
  alive : bool array;
  compute_factor : float array;
  daemon_left : int array;
  link_factor : float array;
  flap : int array;
  nic_extra : int array;
  proxy_down : bool array;
  thread_lost : bool array;
  mutable newly_crashed : int list;
  mutable events_applied : int;
  mutable last_iteration : int;
}

let make ~plan ~nodes =
  if nodes <= 0 then invalid_arg "State.make: nodes must be positive";
  {
    nodes;
    plan;
    alive = Array.make nodes true;
    compute_factor = Array.make nodes 1.0;
    daemon_left = Array.make nodes 0;
    link_factor = Array.make nodes 1.0;
    flap = Array.make nodes 0;
    nic_extra = Array.make nodes 0;
    proxy_down = Array.make nodes false;
    thread_lost = Array.make nodes false;
    newly_crashed = [];
    events_applied = 0;
    last_iteration = -1;
  }

(* Plain labels for counter names; Plan.pp_kind is a formatter and
   interpolates factors, which would explode counter cardinality. *)
let kind_label : Plan.kind -> string = function
  | Plan.Node_crash -> "node-crash"
  | Plan.Core_degrade _ -> "core-degrade"
  | Plan.Link_degrade _ -> "link-degrade"
  | Plan.Link_flap _ -> "link-flap"
  | Plan.Nic_stall _ -> "nic-stall"
  | Plan.Daemon_hang _ -> "daemon-hang"
  | Plan.Proxy_crash -> "proxy-crash"
  | Plan.Thread_loss -> "thread-loss"

let apply t (e : Plan.event) =
  let n = e.node in
  if n >= 0 && n < t.nodes then begin
    t.events_applied <- t.events_applied + 1;
    Mk_obs.Hook.count_node ~node:n ~subsystem:"fault"
      ~name:("events:" ^ kind_label e.kind) 1;
    match e.kind with
    | Plan.Node_crash ->
        if t.alive.(n) then begin
          t.alive.(n) <- false;
          t.newly_crashed <- n :: t.newly_crashed
        end
    | Plan.Core_degrade { factor } ->
        t.compute_factor.(n) <- t.compute_factor.(n) *. factor
    | Plan.Link_degrade { factor } ->
        t.link_factor.(n) <- t.link_factor.(n) *. factor
    | Plan.Link_flap { failures } -> t.flap.(n) <- t.flap.(n) + failures
    | Plan.Nic_stall { extra } -> t.nic_extra.(n) <- t.nic_extra.(n) + extra
    | Plan.Daemon_hang { iterations } ->
        t.daemon_left.(n) <- max t.daemon_left.(n) iterations
    | Plan.Proxy_crash -> t.proxy_down.(n) <- true
    | Plan.Thread_loss -> t.thread_lost.(n) <- true
  end

let begin_iteration t ~iteration =
  if iteration <= t.last_iteration then
    invalid_arg "State.begin_iteration: iterations must increase";
  (* Transients from the previous iteration expire. *)
  Array.fill t.flap 0 t.nodes 0;
  Array.fill t.nic_extra 0 t.nodes 0;
  Array.fill t.proxy_down 0 t.nodes false;
  for n = 0 to t.nodes - 1 do
    if t.daemon_left.(n) > 0 then t.daemon_left.(n) <- t.daemon_left.(n) - 1
  done;
  List.iter
    (fun (e : Plan.event) ->
      if e.iteration > t.last_iteration && e.iteration <= iteration then
        apply t e)
    t.plan.Plan.events;
  t.last_iteration <- iteration

let alive_array t = t.alive

let alive_count t =
  Array.fold_left (fun acc a -> if a then acc + 1 else acc) 0 t.alive

let compute_factors t = t.compute_factor
let daemon_hung t n = t.daemon_left.(n) > 0
let link_factors t = t.link_factor
let flaps t = t.flap
let nic_extra t n = t.nic_extra.(n)
let proxy_down t n = t.proxy_down.(n)
let thread_lost t n = t.thread_lost.(n)

let take_newly_crashed t =
  let l = List.rev t.newly_crashed in
  t.newly_crashed <- [];
  l

let faulted t =
  let any p = Array.exists p in
  any not t.alive
  || any (fun f -> f <> 1.0) t.compute_factor
  || any (fun n -> n > 0) t.daemon_left
  || any (fun f -> f <> 1.0) t.link_factor
  || any (fun n -> n > 0) t.flap
  || any (fun n -> n > 0) t.nic_extra
  || any Fun.id t.proxy_down
  || any Fun.id t.thread_lost

let events_applied t = t.events_applied
let dead_count t = t.nodes - alive_count t
