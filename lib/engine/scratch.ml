(* Domain-local scratch arrays.

   Hot loops (one Driver.run per sweep cell) allocate a handful of
   working arrays per run; under a domain pool those allocations are
   pure minor-GC pressure, and minor GCs are stop-the-world across
   every domain.  Each domain instead keeps one array per tag and
   reuses it across runs.  Arrays never cross domains (DLS) and never
   escape into results, so reuse cannot perturb simulation output —
   see the determinism contract in docs/PARALLELISM.md. *)

let store : (string, int array) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let int_array ~tag ~len ~init =
  if len < 0 then invalid_arg "Scratch.int_array: negative length";
  let tbl = Domain.DLS.get store in
  match Hashtbl.find_opt tbl tag with
  | Some a when Array.length a = len ->
      Array.fill a 0 len init;
      a
  | _ ->
      let a = Array.make len init in
      Hashtbl.replace tbl tag a;
      a
