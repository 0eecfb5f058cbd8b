(* Conservative (Chandy–Misra–Bryant-style) parallel DES.

   The event population is partitioned into [shards], each owning a
   private {!Sim} heap.  Shards advance in lockstep *epochs*: before
   an epoch the coordinator computes the globally earliest pending
   timestamp [g] — over every heap and every in-flight mailbox message
   — and hands all shards the horizon [g + lookahead - 1].  Processing
   an event at time [t] may only send a cross-shard message stamped
   [>= t + lookahead >= g + lookahead], i.e. strictly past the
   horizon, so no message generated during an epoch can land inside
   it: every shard fires its own events in timestamp order and drains
   each inbox FIFO, which makes the parallel run a deterministic
   interleaving — identical for any shard-to-domain placement, pool
   size, or no pool at all.

   Cross-shard messages travel through per-ordered-pair SPSC
   {!Mailbox}es.  A shard that sent a peer nothing during an epoch
   pushes a *null message* instead: a promise that nothing earlier
   than [now + lookahead] will ever arrive on that pair.  The epoch
   barrier already carries the global bound, so the nulls are not
   needed for progress here — they are the per-pair safety net: each
   receiver checks every real message against the last promise and
   fails loudly on a protocol violation rather than reordering
   events.

   The drain is fenced at the barrier: before an epoch the coordinator
   records, per ordered pair, how many packets the sender had pushed,
   and the receiver pops exactly up to that count.  Mail a peer sends
   during epoch e therefore lands in the receiver's heap in epoch e+1,
   never earlier — without the fence, whether it was drained in epoch
   e depended on which shard the pool happened to run first, and that
   changed the heap's insertion order (its tie-break) and the
   barrier's backlog. *)

type 'msg t = {
  id : int;
  shards : int;
  sim : Sim.t;
  lookahead : Units.time;
  deliver : 'msg t -> 'msg -> unit;
  inboxes : 'msg packet Mailbox.t array;  (* indexed by source shard *)
  outboxes : 'msg packet Mailbox.t array;  (* indexed by destination shard *)
  sent_to : bool array;  (* real traffic per destination, this epoch *)
  pushed : int array;  (* packets ever pushed, per destination *)
  popped : int array;  (* packets ever popped, per source *)
  fence : int array;  (* per source: packets it had pushed at the barrier *)
  promise : Units.time array;  (* per-source null-message bound *)
  mutable events : int;
  mutable cross_sent : int;
  mutable nulls_sent : int;
  mutable stalls : int;
  mutable min_sent : Units.time;  (* earliest real send this epoch *)
}

and 'msg packet =
  | Msg of { at : Units.time; payload : 'msg }
  | Null of { bound : Units.time }

type stats = {
  shards : int;
  epochs : int;
  events : int array;
  cross_messages : int array;
  null_messages : int array;
  horizon_stalls : int array;
}

(* Per-epoch self-profiler sample.  Every field is computed on the
   coordinator after the epoch barrier from per-shard counters that
   the protocol itself makes deterministic (identical for any pool
   size or shard placement), so a profile built from these samples
   obeys the same byte-identity contract as the simulation output. *)
type sample = {
  sample_epoch : int;
  sample_bound : Units.time;
  sample_horizon : Units.time;
  sample_events : int;
  sample_cross : int;
  sample_nulls : int;
  sample_stalls : int;
  sample_backlog : int;
}

let id (t : _ t) = t.id
let shard_count (t : _ t) = t.shards
let now (t : _ t) = Sim.now t.sim
let lookahead (t : _ t) = t.lookahead

(* Both operands are non-negative; [max_int] means "never". *)
let sat_add a b = if a >= max_int - b then max_int else a + b

let schedule (t : _ t) ~at handler =
  ignore
    (Sim.schedule t.sim ~at (fun _ ->
         t.events <- t.events + 1;
         handler t))

let push (t : _ t) dst packet =
  Mailbox.push t.outboxes.(dst) packet;
  t.pushed.(dst) <- t.pushed.(dst) + 1

let send (t : 'msg t) ~shard ~at (payload : 'msg) =
  if shard < 0 || shard >= t.shards then
    invalid_arg "Shard.send: destination shard out of range";
  if shard = t.id then
    ignore
      (Sim.schedule t.sim ~at (fun _ ->
           t.events <- t.events + 1;
           t.deliver t payload))
  else begin
    if at < sat_add (Sim.now t.sim) t.lookahead then
      invalid_arg "Shard.send: cross-shard message inside the lookahead window";
    push t shard (Msg { at; payload });
    t.sent_to.(shard) <- true;
    t.cross_sent <- t.cross_sent + 1;
    if at < t.min_sent then t.min_sent <- at
  end

let earliest_send t = if t.min_sent = max_int then None else Some t.min_sent

(* One shard's share of an epoch: merge the mail received up to the
   fence (in source-shard order — the deterministic merge), fire
   everything up to the horizon, then promise every silent peer a
   bound for the next epoch.  Returns (next local timestamp, earliest
   real send), the shard's contribution to the next global bound. *)
let epoch (t : _ t) ~horizon =
  for src = 0 to t.shards - 1 do
    if src <> t.id then begin
      let box = t.inboxes.(src) in
      while t.popped.(src) < t.fence.(src) do
        (match Mailbox.pop box with
        | None -> invalid_arg "Shard: fenced packet missing from its mailbox"
        | Some (Msg { at; payload }) ->
            if at < t.promise.(src) then
              invalid_arg "Shard: message arrived before its null promise";
            ignore
              (Sim.schedule t.sim ~at (fun _ ->
                   t.events <- t.events + 1;
                   t.deliver t payload))
        | Some (Null { bound }) ->
            if bound > t.promise.(src) then t.promise.(src) <- bound);
        t.popped.(src) <- t.popped.(src) + 1
      done
    end
  done;
  let before = t.events in
  Array.fill t.sent_to 0 t.shards false;
  t.min_sent <- max_int;
  Sim.run ~until:horizon t.sim;
  let next = Sim.next_time t.sim in
  if t.events = before && next <> None then t.stalls <- t.stalls + 1;
  let bound = sat_add (Sim.now t.sim) t.lookahead in
  for dst = 0 to t.shards - 1 do
    if dst <> t.id && not t.sent_to.(dst) then begin
      push t dst (Null { bound });
      t.nulls_sent <- t.nulls_sent + 1
    end
  done;
  (next, earliest_send t)

let run ?pool ?observer ~shards ~lookahead ~init ~receive () =
  if shards <= 0 then invalid_arg "Shard.run: shards must be positive";
  if lookahead <= 0 then invalid_arg "Shard.run: lookahead must be positive";
  let boxes =
    Array.init shards (fun _ -> Array.init shards (fun _ -> Mailbox.create ()))
  in
  let ts =
    Array.init shards (fun i ->
        {
          id = i;
          shards;
          sim = Sim.create ();
          lookahead;
          deliver = receive;
          inboxes = Array.init shards (fun src -> boxes.(src).(i));
          outboxes = boxes.(i);
          sent_to = Array.make shards false;
          pushed = Array.make shards 0;
          popped = Array.make shards 0;
          fence = Array.make shards 0;
          promise = Array.make shards 0;
          events = 0;
          cross_sent = 0;
          nulls_sent = 0;
          stalls = 0;
          min_sent = max_int;
        })
  in
  let ids = List.init shards (fun i -> i) in
  let global_bound reports =
    List.fold_left
      (fun acc (next, sent) ->
        let acc = match next with Some v -> min acc v | None -> acc in
        match sent with Some v -> min acc v | None -> acc)
      max_int reports
  in
  (* Round zero populates the heaps (in parallel: [init] may be the
     expensive part, e.g. per-node noise draws); every later round is
     one epoch under the freshly computed horizon.  Mail sent from
     [init] bounds the first epoch exactly as mail sent in an epoch
     bounds the next. *)
  let epochs = ref 0 in
  let reports =
    ref
      (Pool.parallel_map ?pool
         (fun i ->
           let t = ts.(i) in
           init t;
           (Sim.next_time t.sim, earliest_send t))
         ids)
  in
  (* The observer fires on the coordinator, after the epoch barrier:
     the parked workers' writes to the shard counters and mailboxes
     happen-before these reads, and the values themselves are
     protocol-determined, so the sample stream is identical for
     sequential and [-j N] runs. *)
  let observe =
    match observer with
    | None -> fun ~g:_ ~horizon:_ -> ()
    | Some f ->
        let sum field = Array.fold_left (fun acc t -> acc + field t) 0 ts in
        let prev_events = ref 0
        and prev_cross = ref 0
        and prev_nulls = ref 0
        and prev_stalls = ref 0 in
        fun ~g ~horizon ->
          let events = sum (fun t -> t.events)
          and cross = sum (fun t -> t.cross_sent)
          and nulls = sum (fun t -> t.nulls_sent)
          and stalls = sum (fun t -> t.stalls) in
          let backlog = ref 0 in
          Array.iter
            (fun t ->
              for src = 0 to shards - 1 do
                backlog := !backlog + ts.(src).pushed.(t.id) - t.popped.(src)
              done)
            ts;
          f
            {
              sample_epoch = !epochs;
              sample_bound = g;
              sample_horizon = horizon;
              sample_events = events - !prev_events;
              sample_cross = cross - !prev_cross;
              sample_nulls = nulls - !prev_nulls;
              sample_stalls = stalls - !prev_stalls;
              sample_backlog = !backlog;
            };
          prev_events := events;
          prev_cross := cross;
          prev_nulls := nulls;
          prev_stalls := stalls
  in
  let continue = ref true in
  while !continue do
    let g = global_bound !reports in
    if g = max_int then continue := false
    else begin
      incr epochs;
      let horizon = sat_add g (lookahead - 1) in
      (* The fence: every shard drains exactly what its peers had
         pushed by this barrier. *)
      Array.iter
        (fun t ->
          for src = 0 to shards - 1 do
            t.fence.(src) <- ts.(src).pushed.(t.id)
          done)
        ts;
      reports :=
        Pool.parallel_map ?pool (fun i -> epoch ts.(i) ~horizon) ids;
      observe ~g ~horizon
    end
  done;
  {
    shards;
    epochs = !epochs;
    events = Array.map (fun (t : _ t) -> t.events) ts;
    cross_messages = Array.map (fun (t : _ t) -> t.cross_sent) ts;
    null_messages = Array.map (fun (t : _ t) -> t.nulls_sent) ts;
    horizon_stalls = Array.map (fun (t : _ t) -> t.stalls) ts;
  }
