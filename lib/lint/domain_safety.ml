(* Domain-safety pass (rule [domain-race]).

   A top-level binding whose right-hand side creates mutable state —
   a ref, a Hashtbl.t, a Buffer.t, a Queue/Stack, bytes or an array —
   is shared by every domain that can reach it. The engine's contract
   is that tasks fanned out by [Parallel.map_result] touch only
   per-domain state: the [~env] scratch handed to each worker,
   atomics, or bindings whose per-domain ownership discipline is
   declared in lint.toml's [ownership] table ([Atomic.make] bindings
   never register as mutable in the first place).

   The pass marks every definition that can reach an unsanctioned
   top-level mutable, then inspects each [Parallel.map_result] site:
   the roots are the resolved references inside the task and [~env]
   arguments (when an argument mentions a local value the resolver
   cannot see into, the enclosing definition conservatively stands in
   as a root). The [~cache] argument is not a root: its find/store
   closures run on the calling domain. A root that reaches a mutable
   is a finding at the fan-out site — the one place the race actually
   starts — with the witness chain in the message.

   Determinism mirrors {!Effects}: sorted edges, first witness wins. *)

(* Every Hashtbl.fold below feeds a sort before anything observes the
   order, which is the same discipline Psn_det.Det_tbl is sanctioned
   for; this file is a declared [boundary] for hash-order-iteration
   in lint.toml so the taint stops here too. *)
[@@@lint.allow "hash-order-iteration"]

type witness = Self | Via of int * Location.t

(* For each node: the reachable unsanctioned mutables, as
   [mutable node id -> witness]. A node carries at most one witness
   per mutable, the first found in sorted edge order. *)
type reach = (int, witness) Hashtbl.t array

let mutable_nodes ~config (g : Callgraph.t) =
  Array.to_list g.Callgraph.nodes
  |> List.filter_map (fun (n : Callgraph.node) ->
         match n.Callgraph.n_mutable with
         | Some kind
           when not
                  (Config.owned config ~path:n.Callgraph.n_file ~name:n.Callgraph.n_local) ->
           Some (n.Callgraph.n_id, kind)
         | _ -> None)

(* Iterate sorted snapshots, never live tables: Hashtbl order must
   not influence which witness is recorded first. *)
let sorted_keys tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort Int.compare

let propagate ~config (g : Callgraph.t) : reach =
  let reach = Array.map (fun _ -> Hashtbl.create 2) g.Callgraph.nodes in
  List.iter (fun (id, _) -> Hashtbl.replace reach.(id) id Self) (mutable_nodes ~config g);
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (e : Callgraph.edge) ->
        List.iter
          (fun target ->
            if not (Hashtbl.mem reach.(e.Callgraph.e_from) target) then begin
              Hashtbl.replace reach.(e.Callgraph.e_from) target
                (Via (e.Callgraph.e_to, e.Callgraph.e_loc));
              changed := true
            end)
          (sorted_keys reach.(e.Callgraph.e_to)))
      g.Callgraph.edges
  done;
  reach

let chain (g : Callgraph.t) (reach : reach) start target =
  let rec go id depth =
    if depth > 16 then [ "..." ]
    else
      let name = g.Callgraph.nodes.(id).Callgraph.n_name in
      match Hashtbl.find_opt reach.(id) target with
      | None -> [ name ]
      | Some Self -> [ name ]
      | Some (Via (next, _)) -> name :: go next (depth + 1)
  in
  String.concat " -> " (go start 0)

let run ~config (g : Callgraph.t) : Diagnostic.t list =
  let reach = propagate ~config g in
  List.concat_map
    (fun (s : Callgraph.rsite) ->
      let site_node = g.Callgraph.nodes.(s.Callgraph.r_node) in
      if
        List.exists (String.equal "domain-race") s.Callgraph.r_allows
        || Config.allowed config ~path:site_node.Callgraph.n_file ~rule:"domain-race"
      then []
      else
        let roots =
          if s.Callgraph.r_fallback then
            List.sort_uniq Int.compare (s.Callgraph.r_node :: s.Callgraph.r_roots)
          else s.Callgraph.r_roots
        in
        (* One finding per distinct mutable reached, not per root: a
           site where both the task and the env reach the same table
           is one race, not two. *)
        let reached = Hashtbl.create 4 in
        List.iter
          (fun root ->
            Hashtbl.fold (fun target _ acc -> target :: acc) reach.(root) []
            |> List.sort Int.compare
            |> List.iter (fun target ->
                   if not (Hashtbl.mem reached target) then Hashtbl.replace reached target root))
          roots;
        Hashtbl.fold (fun target root acc -> (target, root) :: acc) reached []
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        |> List.map (fun (target, root) ->
               let m = g.Callgraph.nodes.(target) in
               let kind = Option.value ~default:"mutable" m.Callgraph.n_mutable in
               let message =
                 Printf.sprintf
                   "task passed to Parallel.%s reaches shared top-level %s `%s` (%s:%d) through \
                    %s; hand each domain its own state via ~env, use Atomic, or declare \
                    per-domain ownership in lint.toml's [ownership] table"
                   s.Callgraph.r_fn kind m.Callgraph.n_name m.Callgraph.n_file
                   m.Callgraph.n_line
                   (chain g reach root target)
               in
               Diagnostic.of_location s.Callgraph.r_loc ~rule:"domain-race" ~message))
    g.Callgraph.sites
