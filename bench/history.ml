(* Result documents under bench/results/: the one writer, the tagged
   history it builds and the regression diff that reads it.

   Every target that records a result publishes through [publish],
   which is the only code that knows the file layout:

     <target>-<tag>.json     the snapshot of one run; the tag defaults
                             to a UTC timestamp (timestamped snapshots
                             are not tracked in git)
     <target>-latest.json    the moving head
     <target>-prev.json      the head it displaced, so
                             [diff --against latest] always has the run
                             before this one to compare with

   Wall clock is fine here: tags are provenance, never simulation input
   (the determinism contract lives in lib/). *)

open Multikernel

let dir = Filename.concat "bench" "results"

let targets = [ "results"; "faults"; "perf"; "perf-smoke"; "scale"; "scale-smoke" ]

(* The moving heads; no snapshot may be tagged with their names. *)
let reserved_tags = [ "latest"; "prev" ]

(* A file belongs to the longest matching target prefix, so listing
   the [perf] history never swallows [perf-smoke-*] snapshots. *)
let owner file =
  List.fold_left
    (fun acc t ->
      if
        String.starts_with ~prefix:(t ^ "-") file
        && match acc with None -> true | Some a -> String.length t > String.length a
      then Some t
      else acc)
    None targets

let path target name = Filename.concat dir (target ^ "-" ^ name ^ ".json")

(* The repo-root copy a target refreshes on every run, smoke included,
   so the scaling trajectory is tracked across changes (the document's
   "smoke" field says which kind of run produced it). *)
let root_copy = function
  | "scale" | "scale-smoke" -> Some "BENCH_scale.json"
  | _ -> None

let default_tag () =
  let t = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d%02d%02d-%02d%02d%02d" (t.Unix.tm_year + 1900)
    (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
    t.Unix.tm_sec

let ensure_dir () = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let publish ~target ?tag doc =
  let tag = match tag with Some t -> t | None -> default_tag () in
  (* A tag must name a snapshot of this target: not a head, not a
     path, and not a name another target owns ([perf] tagged
     "smoke-latest" would overwrite the [perf-smoke] head). *)
  if
    tag = "" || List.mem tag reserved_tags || String.contains tag '/'
    || owner (target ^ "-" ^ tag ^ ".json") <> Some target
  then begin
    Printf.eprintf
      "history: %S is a reserved tag for %s (reserved: %s, or a name \
       another target owns)\n"
      tag target
      (String.concat " " reserved_tags);
    exit 1
  end;
  ensure_dir ();
  let text = Engine.Json.to_string_pretty doc ^ "\n" in
  (* Round-trip through the parser so a schema-level mistake (a NaN
     timing ratio, say) fails here, not in a later consumer. *)
  (match Engine.Json.of_string text with
  | Ok _ -> ()
  | Error e ->
      Printf.eprintf "history: the %s document does not parse back: %s\n"
        target e;
      exit 1);
  (* Crash-safe: a killed run can leave a stale .tmp behind but never a
     torn file. *)
  let write p =
    Engine.Atomic_file.write p text;
    Printf.printf "wrote %s\n" p
  in
  write (path target tag);
  let latest = path target "latest" in
  (* Preserve the displaced head before replacing it: a crash between
     the two writes still leaves a consistent (prev, latest) pair. *)
  if Sys.file_exists latest then
    Engine.Atomic_file.write (path target "prev") (Engine.Atomic_file.read latest);
  write latest;
  Option.iter write (root_copy target)

let entries target =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun f ->
           if Filename.check_suffix f ".json" && owner f = Some target then
             let prefix_len = String.length target + 1 in
             let tag = String.sub f prefix_len (String.length f - prefix_len - 5) in
             if List.mem tag reserved_tags then None else Some tag
           else None)
    |> List.sort compare

(* Flatten a document to dotted-path numeric leaves; list elements get
   positional [i] indices so matching paths compare one-to-one. *)
let rec num_leaves prefix j acc =
  match j with
  | Engine.Json.Int i -> (prefix, float_of_int i) :: acc
  | Engine.Json.Float f -> (prefix, f) :: acc
  | Engine.Json.Bool _ | Engine.Json.String _ | Engine.Json.Null -> acc
  | Engine.Json.Obj fs ->
      List.fold_left
        (fun acc (k, v) ->
          num_leaves (if prefix = "" then k else prefix ^ "." ^ k) v acc)
        acc fs
  | Engine.Json.List xs ->
      snd
        (List.fold_left
           (fun (i, acc) v ->
             (i + 1, num_leaves (Printf.sprintf "%s[%d]" prefix i) v acc))
           (0, acc) xs)

let flatten_doc j = List.rev (num_leaves "" j [])

(* Which way is worse?  Classified from the leaf name: throughputs,
   speedups and utilizations must not fall; overheads and percentage
   costs must not climb.  Raw wall-clock [_seconds]/[_ns] figures are
   report-only — they move with machine load, and gating on them makes
   CI flake on a busy box.  Counts, seeds and simulated figures
   (events, completion times, FOMs) are model output, legitimately
   changed by model PRs, so they are never gated either. *)
type direction = Higher_better | Lower_better | Report_only

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let leaf_name path =
  let last =
    match String.rindex_opt path '.' with
    | Some i -> String.sub path (i + 1) (String.length path - i - 1)
    | None -> path
  in
  match String.index_opt last '[' with
  | Some i -> String.sub last 0 i
  | None -> last

let diff_direction path =
  let n = leaf_name path in
  if
    contains_sub ~sub:"speedup" n
    || contains_sub ~sub:"improvement" n
    || Filename.check_suffix n "_per_sec"
    || n = "horizon_utilization"
  then Higher_better
  else if Filename.check_suffix n "_pct" || contains_sub ~sub:"overhead" n then
    Lower_better
  else Report_only

type delta = {
  d_path : string;
  d_old : float;
  d_new : float;
  d_rel : float option;  (** percent change; [None] when old is ~0 *)
  d_dir : direction;
  d_regression : bool;
}

(* Pair up numeric leaves by path and flag gated metrics whose change
   crosses [threshold] percent in the bad direction.  Metrics present
   in only one document are structure changes, not regressions — the
   caller reports their count. *)
let compare_docs ~threshold a b =
  let la = flatten_doc a and lb = flatten_doc b in
  let deltas =
    List.filter_map
      (fun (path, nv) ->
        match List.assoc_opt path la with
        | None -> None
        | Some ov ->
            let rel =
              if Float.abs ov > 1e-9 then
                Some ((nv -. ov) /. Float.abs ov *. 100.)
              else None
            in
            let dir =
              match diff_direction path with
              | (Higher_better | Lower_better)
                when Filename.check_suffix (leaf_name path) "_pct"
                     && Float.abs ov < 1.0 ->
                  (* A percentage metric with a sub-point baseline sits
                     at the measurement's noise floor (e.g. a disabled
                     overhead hovering around 0 +/- 1): its *relative*
                     delta explodes on harmless jitter.  The absolute
                     bars (perf --smoke's <= 2% gate) own that regime;
                     the trend diff only gates once the baseline is at
                     least one point. *)
                  Report_only
              | d -> d
            in
            let regression =
              match (rel, dir) with
              | Some r, Higher_better -> r < -.threshold
              | Some r, Lower_better -> r > threshold
              | _ -> false
            in
            Some
              {
                d_path = path;
                d_old = ov;
                d_new = nv;
                d_rel = rel;
                d_dir = dir;
                d_regression = regression;
              })
      lb
  in
  let known l = List.filter (fun (p, _) -> List.mem_assoc p l) in
  let missing = List.length la - List.length (known lb la) in
  let added = List.length lb - List.length (known la lb) in
  (deltas, missing, added)

let print_diff ~threshold ~label_a ~label_b (deltas, missing, added) =
  Printf.printf "bench diff: %s -> %s (threshold %g%%)\n" label_a label_b
    threshold;
  let changed = List.filter (fun d -> d.d_old <> d.d_new) deltas in
  let show d =
    let rel =
      match d.d_rel with
      | Some r -> Printf.sprintf "%+.1f%%" r
      | None -> "(from ~0)"
    in
    let mark =
      if d.d_regression then "  REGRESSION"
      else
        match d.d_dir with
        | Higher_better | Lower_better -> ""
        | Report_only -> "  (report-only)"
    in
    Printf.printf "  %-44s %14.6g -> %-14.6g %10s%s\n" d.d_path d.d_old
      d.d_new rel mark
  in
  List.iter show changed;
  let regressions = List.filter (fun d -> d.d_regression) deltas in
  Printf.printf
    "%d metric(s) compared, %d changed, %d regression(s)%s%s\n"
    (List.length deltas) (List.length changed) (List.length regressions)
    (if missing > 0 then Printf.sprintf ", %d dropped" missing else "")
    (if added > 0 then Printf.sprintf ", %d new" added else "");
  List.length regressions

(* A diff operand resolves in order: literal path, a file under
   bench/results/, a bare snapshot name, or a target whose [-latest]
   head is meant. *)
let resolve_snapshot r =
  let candidates =
    [
      r;
      Filename.concat dir r;
      Filename.concat dir (r ^ ".json");
      path r "latest";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None ->
      Printf.eprintf "diff: cannot resolve %S (tried: %s)\n" r
        (String.concat ", " candidates);
      exit 1

let read_snapshot path =
  match Engine.Atomic_file.read_json path with
  | j -> j
  | exception Engine.Atomic_file.Corrupt { path; reason } ->
      Printf.eprintf "diff: %s is corrupt: %s\n" path reason;
      exit 1

let diff_files ~threshold pa pb =
  print_diff ~threshold ~label_a:pa ~label_b:pb
    (compare_docs ~threshold (read_snapshot pa) (read_snapshot pb))

(* Only the wall-clock targets are diffed against their previous head:
   the results and faults documents are model output, which model
   changes move on purpose. *)
let diff_against_latest ~smoke ~threshold =
  let targets =
    if smoke then [ "perf-smoke"; "scale-smoke" ] else [ "perf"; "scale" ]
  in
  let regressions =
    List.fold_left
      (fun acc t ->
        let prev = path t "prev" and latest = path t "latest" in
        if Sys.file_exists prev && Sys.file_exists latest then
          acc + diff_files ~threshold prev latest
        else begin
          (* Fresh checkout or first run: one snapshot is no trajectory
             yet, and a gate that fails on it would block every clean
             clone — skip loudly instead. *)
          Printf.printf "%s: no history to diff yet (need two runs)\n" t;
          acc
        end)
      0 targets
  in
  if regressions > 0 then exit 1

let list ?target () =
  let show t =
    match entries t with
    | [] -> Printf.printf "%-12s (no tagged snapshots)\n" t
    | tags ->
        List.iter
          (fun tag ->
            let summary =
              match Engine.Atomic_file.read_json (path t tag) with
              | exception Engine.Atomic_file.Corrupt { reason; _ } ->
                  "corrupt: " ^ reason
              | j ->
                  let leaves = flatten_doc j in
                  let prefer =
                    [ "events_per_sec"; "speedup_j2"; "null_overhead_pct";
                      "suite_seconds"; "speedup" ]
                  in
                  let picks =
                    List.filter_map
                      (fun n ->
                        List.find_opt (fun (p, _) -> leaf_name p = n) leaves
                        |> Option.map (fun (_, v) ->
                               Printf.sprintf "%s=%.4g" n v))
                      prefer
                  in
                  Printf.sprintf "%d metrics%s" (List.length leaves)
                    (match picks with
                    | [] -> ""
                    | _ -> "  " ^ String.concat " " picks)
            in
            Printf.printf "%-12s %-18s %s\n" t tag summary)
          tags
  in
  match target with
  | Some t when not (List.mem t targets) ->
      Printf.eprintf "history: unknown target %s (targets: %s)\n" t
        (String.concat " " targets);
      exit 1
  | Some t -> show t
  | None -> List.iter show targets
