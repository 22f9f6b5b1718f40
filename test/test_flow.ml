open Ltc_flow

let check_float = Alcotest.(check (float 1e-6))

(* ----------------------------------------------------------------- Graph *)

let test_graph_basics () =
  let g = Graph.create ~n:3 in
  let a = Graph.add_arc g ~src:0 ~dst:1 ~cap:5 ~cost:2.0 in
  let b = Graph.add_arc g ~src:1 ~dst:2 ~cap:3 ~cost:(-1.0) in
  Alcotest.(check int) "node count" 3 (Graph.node_count g);
  Alcotest.(check int) "arc count" 2 (Graph.arc_count g);
  Alcotest.(check int) "residual" 5 (Graph.residual g a);
  Alcotest.(check int) "flow 0" 0 (Graph.flow g a);
  Graph.push g a 2;
  Alcotest.(check int) "residual after push" 3 (Graph.residual g a);
  Alcotest.(check int) "flow after push" 2 (Graph.flow g a);
  Alcotest.(check int) "reverse residual" 2 (Graph.residual g (a lxor 1));
  check_float "cost" (-1.0) (Graph.cost g b);
  Alcotest.(check int) "src" 1 (Graph.src g b);
  Alcotest.(check int) "dst" 2 (Graph.dst g b)

let test_graph_push_cancel () =
  let g = Graph.create ~n:2 in
  let a = Graph.add_arc g ~src:0 ~dst:1 ~cap:4 ~cost:1.0 in
  Graph.push g a 4;
  (* Pushing on the reverse arc cancels flow. *)
  Graph.push g (a lxor 1) 1;
  Alcotest.(check int) "flow cancelled" 3 (Graph.flow g a)

let test_graph_invalid () =
  let g = Graph.create ~n:2 in
  Alcotest.check_raises "bad node"
    (Invalid_argument "Graph.add_arc: node out of range") (fun () ->
      ignore (Graph.add_arc g ~src:0 ~dst:2 ~cap:1 ~cost:0.0));
  let a = Graph.add_arc g ~src:0 ~dst:1 ~cap:1 ~cost:0.0 in
  Alcotest.check_raises "over-push"
    (Invalid_argument "Graph.push: exceeds residual") (fun () ->
      Graph.push g a 2);
  Alcotest.check_raises "flow of backward arc"
    (Invalid_argument "Graph.flow: backward arc") (fun () ->
      ignore (Graph.flow g (a lxor 1)))

let test_graph_iter_from () =
  let g = Graph.create ~n:3 in
  let a = Graph.add_arc g ~src:0 ~dst:1 ~cap:1 ~cost:0.0 in
  let b = Graph.add_arc g ~src:0 ~dst:2 ~cap:1 ~cost:0.0 in
  let seen = ref [] in
  Graph.iter_arcs_from g 0 (fun arc -> seen := arc :: !seen);
  Alcotest.(check (list int)) "both forward arcs, oldest last" [ a; b ]
    !seen

(* ------------------------------------------------------------- Node_heap *)

let test_node_heap_basic () =
  let h = Node_heap.create ~n:5 in
  Alcotest.(check bool) "empty" true (Node_heap.is_empty h);
  Node_heap.push_or_decrease h 3 2.5;
  Node_heap.push_or_decrease h 1 1.0;
  Node_heap.push_or_decrease h 4 4.0;
  Alcotest.(check bool) "mem" true (Node_heap.mem h 3);
  Alcotest.(check bool) "not mem" false (Node_heap.mem h 0);
  Alcotest.(check int) "size" 3 (Node_heap.size h);
  Alcotest.(check bool) "min first" true (Node_heap.pop_min h = Some (1, 1.0));
  Alcotest.(check bool) "then 3" true (Node_heap.pop_min h = Some (3, 2.5));
  Alcotest.(check bool) "then 4" true (Node_heap.pop_min h = Some (4, 4.0));
  Alcotest.(check bool) "exhausted" true (Node_heap.pop_min h = None)

let test_node_heap_decrease () =
  let h = Node_heap.create ~n:4 in
  Node_heap.push_or_decrease h 0 5.0;
  Node_heap.push_or_decrease h 1 3.0;
  Node_heap.push_or_decrease h 0 1.0;  (* decrease-key *)
  Node_heap.push_or_decrease h 1 9.0;  (* increase: must be ignored *)
  Alcotest.(check bool) "decreased node wins" true
    (Node_heap.pop_min h = Some (0, 1.0));
  Alcotest.(check bool) "increase ignored" true
    (Node_heap.pop_min h = Some (1, 3.0))

let test_node_heap_clear_reuse () =
  let h = Node_heap.create ~n:3 in
  Node_heap.push_or_decrease h 2 1.0;
  Node_heap.clear h;
  Alcotest.(check bool) "cleared" true (Node_heap.is_empty h);
  Alcotest.(check bool) "mem reset" false (Node_heap.mem h 2);
  Node_heap.push_or_decrease h 2 7.0;
  Alcotest.(check bool) "reusable" true (Node_heap.pop_min h = Some (2, 7.0))

let prop_node_heap_sorts =
  QCheck2.Test.make ~name:"node heap pops keys in ascending order" ~count:200
    QCheck2.Gen.(
      let* n = int_range 1 32 in
      let* keys = array_size (return n) (float_range 0.0 100.0) in
      return (n, keys))
    (fun (n, keys) ->
      let h = Node_heap.create ~n in
      Array.iteri (fun v k -> Node_heap.push_or_decrease h v k) keys;
      let rec drain last =
        match Node_heap.pop_min h with
        | None -> true
        | Some (_, k) -> k >= last && drain k
      in
      drain neg_infinity)

(* ------------------------------------------------------------------ Mcmf *)

(* Two units from 0 to 3 over parallel middle arcs of different costs. *)
let test_mcmf_prefers_cheap_path () =
  let g = Graph.create ~n:4 in
  ignore (Graph.add_arc g ~src:0 ~dst:1 ~cap:1 ~cost:0.0);
  ignore (Graph.add_arc g ~src:0 ~dst:2 ~cap:1 ~cost:0.0);
  ignore (Graph.add_arc g ~src:1 ~dst:3 ~cap:1 ~cost:5.0);
  ignore (Graph.add_arc g ~src:2 ~dst:3 ~cap:1 ~cost:1.0);
  let r = Mcmf.run g ~source:0 ~sink:3 in
  Alcotest.(check int) "max flow" 2 r.Mcmf.flow;
  check_float "total cost" 6.0 r.Mcmf.cost

let test_mcmf_negative_costs () =
  (* The LTC-style network: all middle arcs carry negative cost. *)
  let g = Graph.create ~n:4 in
  ignore (Graph.add_arc g ~src:0 ~dst:1 ~cap:2 ~cost:0.0);
  let cheap = Graph.add_arc g ~src:1 ~dst:2 ~cap:1 ~cost:(-0.9) in
  let dear = Graph.add_arc g ~src:1 ~dst:2 ~cap:1 ~cost:(-0.4) in
  ignore (Graph.add_arc g ~src:2 ~dst:3 ~cap:1 ~cost:0.0);
  let r = Mcmf.run g ~source:0 ~sink:3 in
  (* Sink capacity admits one unit; it must travel the -0.9 arc. *)
  Alcotest.(check int) "one unit" 1 r.Mcmf.flow;
  check_float "picked min cost" (-0.9) r.Mcmf.cost;
  Alcotest.(check int) "cheap arc used" 1 (Graph.flow g cheap);
  Alcotest.(check int) "dear arc unused" 0 (Graph.flow g dear)

let test_mcmf_rerouting () =
  (* Classic residual test: the cheap greedy path must be partially undone
     to reach the true optimum. *)
  let g = Graph.create ~n:4 in
  ignore (Graph.add_arc g ~src:0 ~dst:1 ~cap:2 ~cost:1.0);
  ignore (Graph.add_arc g ~src:1 ~dst:3 ~cap:1 ~cost:1.0);
  ignore (Graph.add_arc g ~src:1 ~dst:2 ~cap:1 ~cost:1.0);
  ignore (Graph.add_arc g ~src:0 ~dst:2 ~cap:1 ~cost:4.0);
  ignore (Graph.add_arc g ~src:2 ~dst:3 ~cap:2 ~cost:1.0);
  let r = Mcmf.run g ~source:0 ~sink:3 in
  Alcotest.(check int) "max flow 3" 3 r.Mcmf.flow;
  (* Units: 0-1-3 (2), 0-1-2-3 (3), 0-2-3 (5) = 10. *)
  check_float "optimal cost" 10.0 r.Mcmf.cost

let test_mcmf_max_flow_cap () =
  let g = Graph.create ~n:2 in
  ignore (Graph.add_arc g ~src:0 ~dst:1 ~cap:10 ~cost:1.0);
  let r = Mcmf.run ~max_flow:4 g ~source:0 ~sink:1 in
  Alcotest.(check int) "capped" 4 r.Mcmf.flow;
  check_float "cost" 4.0 r.Mcmf.cost

let test_mcmf_stop_on_nonnegative () =
  let g = Graph.create ~n:3 in
  ignore (Graph.add_arc g ~src:0 ~dst:1 ~cap:1 ~cost:(-2.0));
  ignore (Graph.add_arc g ~src:0 ~dst:1 ~cap:1 ~cost:3.0);
  ignore (Graph.add_arc g ~src:1 ~dst:2 ~cap:2 ~cost:0.0);
  let r = Mcmf.run ~stop_on_nonnegative:true g ~source:0 ~sink:2 in
  Alcotest.(check int) "only profitable unit" 1 r.Mcmf.flow;
  check_float "cost" (-2.0) r.Mcmf.cost

let test_mcmf_disconnected () =
  let g = Graph.create ~n:3 in
  ignore (Graph.add_arc g ~src:0 ~dst:1 ~cap:1 ~cost:1.0);
  let r = Mcmf.run g ~source:0 ~sink:2 in
  Alcotest.(check int) "no flow" 0 r.Mcmf.flow

let test_mcmf_invalid () =
  let g = Graph.create ~n:2 in
  Alcotest.check_raises "source=sink"
    (Invalid_argument "Mcmf.run: source = sink") (fun () ->
      ignore (Mcmf.run g ~source:0 ~sink:0))

(* Brute-force reference: minimum-cost assignment on small bipartite
   instances, compared against the SSPA result. *)
let brute_min_cost_assignment ~n_left ~n_right ~cap_left ~cap_right ~costs =
  (* Enumerate all ways to pick a set of (i, j) pairs respecting caps and
     maximising routed units first, then minimising cost. *)
  let pairs =
    List.concat
      (List.init n_left (fun i -> List.init n_right (fun j -> (i, j))))
  in
  let best_units = ref 0 in
  let best_cost = ref infinity in
  let load_l = Array.make n_left 0 and load_r = Array.make n_right 0 in
  let rec go remaining units cost =
    if units > !best_units || (units = !best_units && cost < !best_cost) then begin
      best_units := units;
      best_cost := cost
    end;
    match remaining with
    | [] -> ()
    | (i, j) :: rest ->
      go rest units cost;
      if load_l.(i) < cap_left && load_r.(j) < cap_right then begin
        load_l.(i) <- load_l.(i) + 1;
        load_r.(j) <- load_r.(j) + 1;
        go rest (units + 1) (cost +. costs.(i).(j));
        load_l.(i) <- load_l.(i) - 1;
        load_r.(j) <- load_r.(j) - 1
      end
  in
  go pairs 0 0.0;
  (!best_units, !best_cost)

let prop_mcmf_matches_brute =
  let gen =
    QCheck2.Gen.(
      let* n_left = int_range 1 3 in
      let* n_right = int_range 1 3 in
      let* cap_left = int_range 1 2 in
      let* cap_right = int_range 1 2 in
      let* costs =
        array_size (return n_left)
          (array_size (return n_right) (float_range (-1.0) 0.0))
      in
      return (n_left, n_right, cap_left, cap_right, costs))
  in
  QCheck2.Test.make ~name:"SSPA = brute force on bipartite instances"
    ~count:150 gen
    (fun (n_left, n_right, cap_left, cap_right, costs) ->
      let n = n_left + n_right + 2 in
      let source = 0 and sink = n - 1 in
      let g = Graph.create ~n in
      for i = 0 to n_left - 1 do
        ignore (Graph.add_arc g ~src:source ~dst:(1 + i) ~cap:cap_left ~cost:0.0)
      done;
      for i = 0 to n_left - 1 do
        for j = 0 to n_right - 1 do
          ignore
            (Graph.add_arc g ~src:(1 + i) ~dst:(1 + n_left + j) ~cap:1
               ~cost:costs.(i).(j))
        done
      done;
      for j = 0 to n_right - 1 do
        ignore
          (Graph.add_arc g ~src:(1 + n_left + j) ~dst:sink ~cap:cap_right
             ~cost:0.0)
      done;
      let r = Mcmf.run g ~source ~sink in
      let units, cost =
        brute_min_cost_assignment ~n_left ~n_right ~cap_left ~cap_right ~costs
      in
      r.Mcmf.flow = units && Float.abs (r.Mcmf.cost -. cost) < 1e-6)

let prop_mcmf_flow_conservation =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 2 6 in
      let* arcs =
        (* Non-negative costs: random topologies with negative arcs can
           contain negative cycles, which Mcmf rejects by design. *)
        list_size (int_range 1 12)
          (triple (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
             (int_range 0 3) (float_range 0.0 2.0))
      in
      return (n, arcs))
  in
  QCheck2.Test.make ~name:"flow conservation at inner nodes" ~count:150 gen
    (fun (n, arcs) ->
      let g = Graph.create ~n in
      List.iter
        (fun ((src, dst), cap, cost) ->
          if src <> dst then ignore (Graph.add_arc g ~src ~dst ~cap ~cost))
        arcs;
      let source = 0 and sink = n - 1 in
      let r = Mcmf.run g ~source ~sink in
      let balance = Array.make n 0 in
      Graph.iter_forward_arcs g (fun a ->
          let f = Graph.flow g a in
          balance.(Graph.src g a) <- balance.(Graph.src g a) - f;
          balance.(Graph.dst g a) <- balance.(Graph.dst g a) + f);
      let ok = ref (balance.(source) = -r.Mcmf.flow && balance.(sink) = r.Mcmf.flow) in
      for v = 0 to n - 1 do
        if v <> source && v <> sink && balance.(v) <> 0 then ok := false
      done;
      !ok)

(* ------------------------------------------------------------- Mcmf_spfa *)

let random_bipartite_gen =
  QCheck2.Gen.(
    let* n_left = int_range 1 4 in
    let* n_right = int_range 1 4 in
    let* cap_left = int_range 1 3 in
    let* cap_right = int_range 1 3 in
    let* costs =
      array_size (return n_left)
        (array_size (return n_right) (float_range (-1.0) 0.0))
    in
    return (n_left, n_right, cap_left, cap_right, costs))

let build_bipartite (n_left, n_right, cap_left, cap_right, costs) =
  let n = n_left + n_right + 2 in
  let source = 0 and sink = n - 1 in
  let g = Graph.create ~n in
  for i = 0 to n_left - 1 do
    ignore (Graph.add_arc g ~src:source ~dst:(1 + i) ~cap:cap_left ~cost:0.0)
  done;
  for i = 0 to n_left - 1 do
    for j = 0 to n_right - 1 do
      ignore
        (Graph.add_arc g ~src:(1 + i) ~dst:(1 + n_left + j) ~cap:1
           ~cost:costs.(i).(j))
    done
  done;
  for j = 0 to n_right - 1 do
    ignore
      (Graph.add_arc g ~src:(1 + n_left + j) ~dst:sink ~cap:cap_right ~cost:0.0)
  done;
  (g, source, sink)

let prop_spfa_agrees_with_sspa =
  QCheck2.Test.make ~name:"SPFA and SSPA solvers agree" ~count:200
    random_bipartite_gen
    (fun input ->
      let g1, source, sink = build_bipartite input in
      let g2, _, _ = build_bipartite input in
      let r1 = Mcmf.run g1 ~source ~sink in
      let r2 = Mcmf_spfa.run g2 ~source ~sink in
      r1.Mcmf.flow = r2.Mcmf.flow
      && Float.abs (r1.Mcmf.cost -. r2.Mcmf.cost) < 1e-6)

let test_spfa_negative_costs () =
  let g = Graph.create ~n:4 in
  ignore (Graph.add_arc g ~src:0 ~dst:1 ~cap:2 ~cost:0.0);
  ignore (Graph.add_arc g ~src:1 ~dst:2 ~cap:1 ~cost:(-0.9));
  ignore (Graph.add_arc g ~src:1 ~dst:2 ~cap:1 ~cost:(-0.4));
  ignore (Graph.add_arc g ~src:2 ~dst:3 ~cap:1 ~cost:0.0);
  let r = Mcmf_spfa.run g ~source:0 ~sink:3 in
  Alcotest.(check int) "one unit" 1 r.Mcmf.flow;
  check_float "min cost" (-0.9) r.Mcmf.cost

(* ----------------------------------------------------------------- Dinic *)

let test_dinic_simple () =
  let g = Graph.create ~n:4 in
  ignore (Graph.add_arc g ~src:0 ~dst:1 ~cap:3 ~cost:0.0);
  ignore (Graph.add_arc g ~src:0 ~dst:2 ~cap:2 ~cost:0.0);
  ignore (Graph.add_arc g ~src:1 ~dst:3 ~cap:2 ~cost:0.0);
  ignore (Graph.add_arc g ~src:1 ~dst:2 ~cap:1 ~cost:0.0);
  ignore (Graph.add_arc g ~src:2 ~dst:3 ~cap:3 ~cost:0.0);
  Alcotest.(check int) "max flow 5" 5 (Dinic.max_flow g ~source:0 ~sink:3)

let test_dinic_disconnected () =
  let g = Graph.create ~n:3 in
  ignore (Graph.add_arc g ~src:0 ~dst:1 ~cap:5 ~cost:0.0);
  Alcotest.(check int) "no flow" 0 (Dinic.max_flow g ~source:0 ~sink:2)

let general_graph_gen =
  QCheck2.Gen.(
    let* n = int_range 2 7 in
    let* arcs =
      list_size (int_range 1 14)
        (triple (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
           (int_range 0 4) (float_range 0.0 3.0))
    in
    return (n, arcs))

let build_general (n, arcs) =
  let g = Graph.create ~n in
  List.iter
    (fun ((src, dst), cap, cost) ->
      if src <> dst then ignore (Graph.add_arc g ~src ~dst ~cap ~cost))
    arcs;
  g

let prop_spfa_agrees_on_general_graphs =
  QCheck2.Test.make ~name:"SPFA = SSPA on general non-negative graphs"
    ~count:150 general_graph_gen
    (fun input ->
      let n, _ = input in
      let g1 = build_general input in
      let g2 = build_general input in
      let r1 = Mcmf.run g1 ~source:0 ~sink:(n - 1) in
      let r2 = Mcmf_spfa.run g2 ~source:0 ~sink:(n - 1) in
      r1.Mcmf.flow = r2.Mcmf.flow
      && Float.abs (r1.Mcmf.cost -. r2.Mcmf.cost) < 1e-6)

let prop_dinic_on_general_graphs =
  QCheck2.Test.make ~name:"Dinic = SSPA flow value on general graphs"
    ~count:150 general_graph_gen
    (fun input ->
      let n, _ = input in
      let g1 = build_general input in
      let g2 = build_general input in
      let r = Mcmf.run g1 ~source:0 ~sink:(n - 1) in
      Dinic.max_flow g2 ~source:0 ~sink:(n - 1) = r.Mcmf.flow)

let prop_dinic_agrees_with_mcmf_flow =
  QCheck2.Test.make ~name:"Dinic max flow = SSPA max flow" ~count:200
    random_bipartite_gen
    (fun input ->
      let g1, source, sink = build_bipartite input in
      let g2, _, _ = build_bipartite input in
      let r = Mcmf.run g1 ~source ~sink in
      Dinic.max_flow g2 ~source ~sink = r.Mcmf.flow)

(* -------------------------------------------- arena / workspace reuse *)

let test_graph_clear_reuse () =
  let g = Graph.create ~n:3 in
  let a = Graph.add_arc g ~src:0 ~dst:1 ~cap:5 ~cost:1.0 in
  Graph.push g a 2;
  ignore (Graph.add_arc g ~src:1 ~dst:2 ~cap:1 ~cost:0.0);
  Graph.clear g ~n:2;
  Alcotest.(check int) "nodes" 2 (Graph.node_count g);
  Alcotest.(check int) "no arcs" 0 (Graph.arc_count g);
  let seen = ref [] in
  Graph.iter_arcs_from g 0 (fun arc -> seen := arc :: !seen);
  Alcotest.(check (list int)) "adjacency reset" [] !seen;
  let b = Graph.add_arc g ~src:0 ~dst:1 ~cap:3 ~cost:0.0 in
  Alcotest.(check int) "arc ids restart at 0" 0 b;
  Alcotest.(check int) "fresh residual" 3 (Graph.residual g b);
  Alcotest.(check int) "fresh reverse residual" 0 (Graph.residual g (b lxor 1));
  (* Growing clear: nodes beyond the old count start with empty adjacency. *)
  Graph.clear g ~n:5;
  let seen = ref [] in
  Graph.iter_arcs_from g 4 (fun arc -> seen := arc :: !seen);
  Alcotest.(check (list int)) "new nodes empty" [] !seen;
  Alcotest.check_raises "bad n"
    (Invalid_argument "Graph.clear: n must be positive") (fun () ->
      Graph.clear g ~n:0)

let test_graph_reserve () =
  let g = Graph.create ~n:2 in
  let before = Graph.memory_words g in
  Graph.reserve g ~nodes:64 ~arcs:100;
  let after = Graph.memory_words g in
  Alcotest.(check bool) "memory_words reports the reservation" true
    (after > before);
  Graph.clear g ~n:64;
  let words = Graph.memory_words g in
  for i = 0 to 99 do
    ignore (Graph.add_arc g ~src:(i mod 63) ~dst:63 ~cap:1 ~cost:0.0)
  done;
  Alcotest.(check int) "no growth within the reservation" words
    (Graph.memory_words g);
  Alcotest.check_raises "negative size"
    (Invalid_argument "Graph.reserve: negative size") (fun () ->
      Graph.reserve g ~nodes:(-1) ~arcs:0)

let test_node_heap_grow () =
  let h = Node_heap.create ~n:2 in
  Node_heap.push_or_decrease h 1 3.0;
  Node_heap.ensure_capacity h ~n:10;
  Alcotest.(check bool) "capacity grew" true (Node_heap.capacity h >= 10);
  Node_heap.push_or_decrease h 7 1.0;
  Alcotest.(check bool) "new node usable" true
    (Node_heap.pop_min h = Some (7, 1.0));
  Alcotest.(check bool) "old entry intact" true
    (Node_heap.pop_min h = Some (1, 3.0))

let test_workspace_growth () =
  let ws = Mcmf.create_workspace ~hint:2 () in
  Alcotest.(check bool) "hint respected" true (Mcmf.workspace_capacity ws >= 2);
  let input =
    (3, 3, 2, 2, [| [| -0.5; -0.2; -0.9 |];
                    [| -0.1; -0.8; -0.3 |];
                    [| -0.7; -0.4; -0.6 |] |])
  in
  let g1, source, sink = build_bipartite input in
  let r1 = Mcmf.run g1 ~workspace:ws ~source ~sink in
  Alcotest.(check bool) "grew to the graph" true
    (Mcmf.workspace_capacity ws >= Graph.node_count g1);
  (* Same solve on the same workspace must be oblivious to stale labels. *)
  let g2, _, _ = build_bipartite input in
  let r2 = Mcmf.run g2 ~workspace:ws ~source ~sink in
  Alcotest.(check int) "flow stable across reuse" r1.Mcmf.flow r2.Mcmf.flow;
  check_float "cost stable across reuse" r1.Mcmf.cost r2.Mcmf.cost

(* One workspace shared across every generated case: reuse itself is under
   test.  Exact (=) float comparisons are deliberate — the reused/DAG path
   must be bit-identical to the cold Bellman-Ford path on batch-shaped
   (layered, arcs-in-topological-order) graphs. *)
let prop_dag_init_matches_bf =
  let ws = Mcmf.create_workspace () in
  QCheck2.Test.make
    ~name:"reused workspace + `Dag_topo = fresh Bellman-Ford, exactly"
    ~count:300 random_bipartite_gen (fun input ->
      let g1, source, sink = build_bipartite input in
      let g2, _, _ = build_bipartite input in
      let r1 = Mcmf.run g1 ~source ~sink in
      let r2 = Mcmf.run g2 ~workspace:ws ~init:`Dag_topo ~source ~sink in
      r1.Mcmf.flow = r2.Mcmf.flow
      && r1.Mcmf.cost = r2.Mcmf.cost
      && r1.Mcmf.rounds = r2.Mcmf.rounds)

let prop_dag_init_same_potentials =
  QCheck2.Test.make ~name:"`Dag_topo potentials = Bellman-Ford potentials"
    ~count:300 random_bipartite_gen (fun input ->
      let g1, source, sink = build_bipartite input in
      let g2, _, _ = build_bipartite input in
      let ws1 = Mcmf.create_workspace () in
      let ws2 = Mcmf.create_workspace () in
      (* max_flow:0 runs the initialiser and nothing else, exposing the raw
         initial potentials through the workspace. *)
      ignore (Mcmf.run g1 ~workspace:ws1 ~max_flow:0 ~source ~sink);
      ignore
        (Mcmf.run g2 ~workspace:ws2 ~max_flow:0 ~init:`Dag_topo ~source ~sink);
      let p1 = Mcmf.borrow_potentials ws1 and p2 = Mcmf.borrow_potentials ws2 in
      let ok = ref true in
      for v = 0 to Graph.node_count g1 - 1 do
        if p1.(v) <> p2.(v) then ok := false
      done;
      !ok)

let prop_spfa_workspace_reuse =
  let ws = Mcmf.create_workspace () in
  QCheck2.Test.make ~name:"SPFA with reused workspace = fresh SPFA, exactly"
    ~count:300 random_bipartite_gen (fun input ->
      let g1, source, sink = build_bipartite input in
      let g2, _, _ = build_bipartite input in
      let r1 = Mcmf_spfa.run g1 ~source ~sink in
      let r2 = Mcmf_spfa.run g2 ~workspace:ws ~source ~sink in
      r1.Mcmf.flow = r2.Mcmf.flow && r1.Mcmf.cost = r2.Mcmf.cost)

(* ---------------------------------------------------------------- Solver *)

let test_graph_truncate () =
  let g = Graph.create ~n:4 in
  let a = Graph.add_arc g ~src:0 ~dst:1 ~cap:2 ~cost:0.5 in
  let mark = Graph.arc_slots g in
  let b = Graph.add_arc g ~src:1 ~dst:2 ~cap:1 ~cost:0.0 in
  let c = Graph.add_arc g ~src:1 ~dst:3 ~cap:1 ~cost:0.0 in
  Graph.push g a 1;
  Graph.push g b 1;
  Alcotest.(check int) "arcs before" 3 (Graph.arc_count g);
  Graph.truncate g mark;
  Alcotest.(check int) "arcs after" 1 (Graph.arc_count g);
  Alcotest.(check int) "persistent flow survives" 1 (Graph.flow g a);
  let seen = ref [] in
  Graph.iter_arcs_from g 1 (fun arc -> seen := arc :: !seen);
  (* Only [a]'s backward slot remains in node 1's chain; the retracted
     forward arcs [b]/[c] are gone. *)
  Alcotest.(check (list int)) "adjacency restored" [ a lxor 1 ] !seen;
  (* Re-appending reuses the retracted slots with fresh state. *)
  let b' = Graph.add_arc g ~src:1 ~dst:2 ~cap:3 ~cost:0.0 in
  Alcotest.(check int) "slot reused" b b';
  Alcotest.(check int) "fresh flow" 0 (Graph.flow g b');
  Alcotest.(check int) "fresh residual" 3 (Graph.residual g b');
  ignore c;
  Alcotest.check_raises "odd checkpoint"
    (Invalid_argument "Graph.truncate: bad arc-slot checkpoint") (fun () ->
      Graph.truncate g 1);
  Alcotest.check_raises "checkpoint past end"
    (Invalid_argument "Graph.truncate: bad arc-slot checkpoint") (fun () ->
      Graph.truncate g (Graph.arc_slots g + 2))

let test_graph_set_capacity () =
  let g = Graph.create ~n:2 in
  let a = Graph.add_arc g ~src:0 ~dst:1 ~cap:3 ~cost:0.0 in
  Graph.push g a 2;
  Alcotest.(check int) "flow routed" 2 (Graph.flow g a);
  Graph.set_capacity g a 5;
  Alcotest.(check int) "residual re-dimensioned" 5 (Graph.residual g a);
  Alcotest.(check int) "flow discarded" 0 (Graph.flow g a);
  Graph.set_capacity g a 0;
  Alcotest.(check int) "retired" 0 (Graph.residual g a);
  Alcotest.check_raises "backward arc"
    (Invalid_argument "Graph.set_capacity: backward arc") (fun () ->
      Graph.set_capacity g (a lxor 1) 1);
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Graph.set_capacity: negative capacity") (fun () ->
      Graph.set_capacity g a (-1))

let test_copy_potentials () =
  let input =
    (2, 2, 1, 1, [| [| -0.5; -0.2 |]; [| -0.1; -0.8 |] |])
  in
  let g, source, sink = build_bipartite input in
  let ws = Mcmf.create_workspace () in
  ignore (Mcmf.run g ~workspace:ws ~source ~sink);
  let n = Graph.node_count g in
  let copy = Mcmf.copy_potentials ws ~n in
  let live = Mcmf.borrow_potentials ws in
  Alcotest.(check int) "length" n (Array.length copy);
  for v = 0 to n - 1 do
    Alcotest.(check (float 0.0)) "snapshot matches live" live.(v) copy.(v)
  done;
  (* The copy is detached: mutating it leaves the workspace unchanged. *)
  copy.(0) <- 42.0;
  Alcotest.(check bool) "detached" true (live.(0) <> 42.0);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Mcmf.copy_potentials: n out of range") (fun () ->
      ignore (Mcmf.copy_potentials ws ~n:(Array.length live + 1)))

let test_budget_validation () =
  let g = Graph.create ~n:2 in
  ignore (Graph.add_arc g ~src:0 ~dst:1 ~cap:1 ~cost:0.0);
  Alcotest.check_raises "negative rounds"
    (Invalid_argument "Mcmf.run: negative round budget") (fun () ->
      ignore (Mcmf.run g ~budget:(Mcmf.Rounds (-1)) ~source:0 ~sink:1));
  Alcotest.check_raises "negative deadline"
    (Invalid_argument "Mcmf.run: negative deadline budget") (fun () ->
      ignore (Mcmf.run g ~budget:(Mcmf.Deadline_s (-1.0)) ~source:0 ~sink:1))

let test_budget_rounds () =
  (* Three parallel unit paths: each augmenting round routes one. *)
  let build () =
    let g = Graph.create ~n:5 in
    for i = 0 to 2 do
      ignore
        (Graph.add_arc g ~src:0 ~dst:(1 + i) ~cap:1
           ~cost:(-1.0 +. (0.1 *. float_of_int i)));
      ignore (Graph.add_arc g ~src:(1 + i) ~dst:4 ~cap:1 ~cost:0.0)
    done;
    g
  in
  let r0 = Mcmf.run (build ()) ~budget:(Mcmf.Rounds 0) ~source:0 ~sink:4 in
  Alcotest.(check int) "zero budget routes nothing" 0 r0.Mcmf.flow;
  Alcotest.(check bool) "zero budget exhausts" true r0.Mcmf.exhausted;
  let r1 = Mcmf.run (build ()) ~budget:(Mcmf.Rounds 1) ~source:0 ~sink:4 in
  Alcotest.(check int) "one round, one unit" 1 r1.Mcmf.flow;
  check_float "cheapest path first" (-1.0) r1.Mcmf.cost;
  Alcotest.(check bool) "cut short" true r1.Mcmf.exhausted;
  let exact = Mcmf.run (build ()) ~source:0 ~sink:4 in
  let lavish =
    Mcmf.run (build ()) ~budget:(Mcmf.Rounds max_int) ~source:0 ~sink:4
  in
  Alcotest.(check int) "lavish budget = exact flow" exact.Mcmf.flow
    lavish.Mcmf.flow;
  check_float "lavish budget = exact cost" exact.Mcmf.cost lavish.Mcmf.cost;
  Alcotest.(check bool) "lavish budget never fires" false lavish.Mcmf.exhausted;
  let slow =
    Mcmf.run (build ()) ~budget:(Mcmf.Deadline_s 3600.0) ~source:0 ~sink:4
  in
  Alcotest.(check int) "distant deadline = exact" exact.Mcmf.flow
    slow.Mcmf.flow

(* Budgeted runs return a prefix of the exact augmentation sequence: the k
   units a budget managed to route cost exactly what an exact [max_flow:k]
   solve pays (SSPA prefix-optimality).  Exact float equality is deliberate
   — both runs perform the identical arithmetic. *)
let prop_anytime_prefix_optimal =
  QCheck2.Test.make ~name:"anytime budget yields a min-cost prefix flow"
    ~count:200
    QCheck2.Gen.(pair random_bipartite_gen (int_range 0 4))
    (fun (input, rounds) ->
      let g1, source, sink = build_bipartite input in
      let g2, _, _ = build_bipartite input in
      let budgeted =
        Mcmf.run g1 ~budget:(Mcmf.Rounds rounds) ~source ~sink
      in
      let prefix = Mcmf.run g2 ~max_flow:budgeted.Mcmf.flow ~source ~sink in
      budgeted.Mcmf.flow = prefix.Mcmf.flow
      && budgeted.Mcmf.cost = prefix.Mcmf.cost)

let test_solver_registry () =
  Alcotest.(check (list string))
    "registry order"
    [ "sspa"; "spfa"; "incremental" ]
    (Solver.names ());
  let caps name = Solver.capabilities (Solver.create name) in
  Alcotest.(check bool) "sspa potentials" true (caps "sspa").Solver.potentials;
  Alcotest.(check bool) "sspa scratch" false (caps "sspa").Solver.incremental;
  Alcotest.(check bool) "spfa no potentials" false
    (caps "spfa").Solver.potentials;
  Alcotest.(check bool) "incremental" true
    (caps "incremental").Solver.incremental;
  Alcotest.(check string) "case insensitive" "sspa"
    (Solver.name (Solver.create "SSPA"));
  Alcotest.(check int) "all_capabilities covers registry"
    (List.length (Solver.names ()))
    (List.length (Solver.all_capabilities ()));
  Alcotest.check_raises "unknown solver"
    (Invalid_argument
       "Solver.create: unknown solver \"simplex\" (try: sspa, spfa, \
        incremental)") (fun () -> ignore (Solver.create "simplex"))

let test_solver_scratch_backends () =
  let input =
    (3, 3, 2, 2, [| [| -0.5; -0.2; -0.9 |];
                    [| -0.1; -0.8; -0.3 |];
                    [| -0.7; -0.4; -0.6 |] |])
  in
  let g1, source, sink = build_bipartite input in
  let g2, _, _ = build_bipartite input in
  let sspa = Solver.create "sspa" in
  let spfa = Solver.create "spfa" in
  let r1 = Solver.solve sspa g1 ~source ~sink in
  let r2 = Solver.solve spfa g2 ~source ~sink in
  Alcotest.(check int) "backends agree on flow" r1.Mcmf.flow r2.Mcmf.flow;
  check_float "backends agree on cost" r1.Mcmf.cost r2.Mcmf.cost;
  Alcotest.(check int) "scratch solvers own no graph" 0
    (Solver.memory_words sspa);
  let inc = Solver.create "incremental" in
  Alcotest.check_raises "incremental rejects scratch solves"
    (Invalid_argument
       "Solver.solve: the incremental solver keeps live session state; use \
        the resolve protocol") (fun () ->
      ignore (Solver.solve inc g1 ~source ~sink))

let test_solver_session_discipline () =
  let sspa = Solver.create "sspa" in
  Alcotest.check_raises "session calls need an incremental backend"
    (Invalid_argument "Solver.set_unit: \"sspa\" is not an incremental solver")
    (fun () -> Solver.set_unit sspa ~unit_id:0 ~cap:1);
  let s = Solver.create "incremental" in
  Alcotest.check_raises "add_worker needs an open batch"
    (Invalid_argument "Solver.add_worker: no open batch") (fun () ->
      ignore (Solver.add_worker s ~cap:1));
  Alcotest.check_raises "end_batch needs an open batch"
    (Invalid_argument "Solver.end_batch: no open batch") (fun () ->
      Solver.end_batch s);
  Solver.set_unit s ~unit_id:0 ~cap:1;
  Solver.begin_batch s;
  Alcotest.check_raises "set_unit locked while open"
    (Invalid_argument "Solver.set_unit: batch in progress") (fun () ->
      Solver.set_unit s ~unit_id:1 ~cap:1);
  Alcotest.check_raises "no nested batches"
    (Invalid_argument "Solver.begin_batch: batch already open") (fun () ->
      Solver.begin_batch s);
  let w = Solver.add_worker s ~cap:1 in
  Alcotest.check_raises "links need declared units"
    (Invalid_argument "Solver.add_link: undeclared unit") (fun () ->
      ignore (Solver.add_link s ~worker:w ~unit_id:7 ~cost:0.0));
  let link = Solver.add_link s ~worker:w ~unit_id:0 ~cost:(-0.5) in
  Alcotest.check_raises "flows only after resolve"
    (Invalid_argument "Solver.link_flow: resolve first") (fun () ->
      ignore (Solver.link_flow s link));
  let r = Solver.resolve s () in
  Alcotest.(check int) "unit routed" 1 r.Mcmf.flow;
  check_float "link cost" (-0.5) r.Mcmf.cost;
  Alcotest.(check int) "link carries the unit" 1 (Solver.link_flow s link);
  Solver.end_batch s;
  Alcotest.(check bool) "session owns persistent state" true
    (Solver.memory_words s > 0)

(* The tentpole cross-check: a long-lived incremental session, fed randomized
   batches of worker arrivals and task completions, must match a from-scratch
   SSPA solve of every intermediate state.  The scratch mirror rebuilds the
   bipartite network from the tracked remaining capacities each batch; the
   session only hears about the delta (new workers, units whose demand
   changed).  Flow must agree exactly, cost within float tolerance. *)
let incremental_scenario_gen =
  QCheck2.Gen.(
    let* n_units = int_range 1 4 in
    let* unit_caps = array_size (return n_units) (int_range 1 3) in
    let* batches =
      list_size (int_range 1 5)
        (let* n_w = int_range 1 3 in
         let* wcaps = array_size (return n_w) (int_range 1 2) in
         let* links =
           array_size (return n_w)
             (array_size (return n_units)
                (pair bool (float_range (-1.0) 0.0)))
         in
         (* External completions applied after the batch: tasks answered
            outside this solver's assignments. *)
         let* completions = array_size (return n_units) bool in
         return (wcaps, links, completions))
    in
    return (unit_caps, batches))

let prop_incremental_matches_scratch =
  QCheck2.Test.make
    ~name:"incremental session = from-scratch SSPA on every delta" ~count:300
    incremental_scenario_gen (fun (unit_caps, batches) ->
      let n_units = Array.length unit_caps in
      let sol = Solver.create "incremental" in
      let rem = Array.copy unit_caps in
      Array.iteri (fun u cap -> Solver.set_unit sol ~unit_id:u ~cap) rem;
      List.for_all
        (fun (wcaps, links, completions) ->
          let n_w = Array.length wcaps in
          (* From-scratch mirror of the current remaining demand. *)
          let n = 2 + n_w + n_units in
          let g = Graph.create ~n in
          let src = 0 and snk = n - 1 in
          Array.iteri
            (fun i cap ->
              ignore (Graph.add_arc g ~src ~dst:(1 + i) ~cap ~cost:0.0))
            wcaps;
          Array.iteri
            (fun i row ->
              Array.iteri
                (fun u (present, cost) ->
                  if present then
                    ignore
                      (Graph.add_arc g ~src:(1 + i) ~dst:(1 + n_w + u) ~cap:1
                         ~cost))
                row)
            links;
          Array.iteri
            (fun u cap ->
              ignore
                (Graph.add_arc g ~src:(1 + n_w + u) ~dst:snk ~cap ~cost:0.0))
            rem;
          let rs = Mcmf.run g ~source:src ~sink:snk in
          (* The same batch against the live session. *)
          Solver.begin_batch sol;
          Array.iteri
            (fun i cap -> ignore (Solver.add_worker sol ~cap : int); ignore i)
            wcaps;
          let batch_links = ref [] in
          Array.iteri
            (fun i row ->
              Array.iteri
                (fun u (present, cost) ->
                  if present then
                    batch_links :=
                      (u, Solver.add_link sol ~worker:i ~unit_id:u ~cost)
                      :: !batch_links)
                row)
            links;
          let ri = Solver.resolve sol () in
          let routed = Array.make n_units 0 in
          List.iter
            (fun (u, link) ->
              routed.(u) <- routed.(u) + Solver.link_flow sol link)
            !batch_links;
          Solver.end_batch sol;
          (* Sync the delta: units that received flow, then external
             completions — exactly the caller obligation MCF-LTC honours. *)
          for u = 0 to n_units - 1 do
            let before = rem.(u) in
            rem.(u) <- rem.(u) - routed.(u);
            if completions.(u) && rem.(u) > 0 then rem.(u) <- rem.(u) - 1;
            if rem.(u) <> before || routed.(u) > 0 then
              Solver.set_unit sol ~unit_id:u ~cap:rem.(u)
          done;
          ri.Mcmf.flow = rs.Mcmf.flow
          && Float.abs (ri.Mcmf.cost -. rs.Mcmf.cost) < 1e-6
          && (not ri.Mcmf.exhausted))
        batches)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "flow.graph",
      [
        Alcotest.test_case "basics" `Quick test_graph_basics;
        Alcotest.test_case "push/cancel" `Quick test_graph_push_cancel;
        Alcotest.test_case "invalid args" `Quick test_graph_invalid;
        Alcotest.test_case "iteration" `Quick test_graph_iter_from;
      ] );
    ( "flow.node_heap",
      [
        Alcotest.test_case "basic" `Quick test_node_heap_basic;
        Alcotest.test_case "decrease-key" `Quick test_node_heap_decrease;
        Alcotest.test_case "clear and reuse" `Quick test_node_heap_clear_reuse;
        qcheck prop_node_heap_sorts;
      ] );
    ( "flow.mcmf",
      [
        Alcotest.test_case "prefers cheap path" `Quick
          test_mcmf_prefers_cheap_path;
        Alcotest.test_case "negative costs" `Quick test_mcmf_negative_costs;
        Alcotest.test_case "rerouting through residuals" `Quick
          test_mcmf_rerouting;
        Alcotest.test_case "max_flow cap" `Quick test_mcmf_max_flow_cap;
        Alcotest.test_case "stop on nonnegative" `Quick
          test_mcmf_stop_on_nonnegative;
        Alcotest.test_case "disconnected" `Quick test_mcmf_disconnected;
        Alcotest.test_case "invalid args" `Quick test_mcmf_invalid;
        qcheck prop_mcmf_matches_brute;
        qcheck prop_mcmf_flow_conservation;
      ] );
    ( "flow.mcmf_spfa",
      [
        Alcotest.test_case "negative costs" `Quick test_spfa_negative_costs;
        qcheck prop_spfa_agrees_with_sspa;
        qcheck prop_spfa_agrees_on_general_graphs;
      ] );
    ( "flow.dinic",
      [
        Alcotest.test_case "textbook network" `Quick test_dinic_simple;
        Alcotest.test_case "disconnected" `Quick test_dinic_disconnected;
        qcheck prop_dinic_agrees_with_mcmf_flow;
        qcheck prop_dinic_on_general_graphs;
      ] );
    ( "flow.reuse",
      [
        Alcotest.test_case "graph clear" `Quick test_graph_clear_reuse;
        Alcotest.test_case "graph reserve" `Quick test_graph_reserve;
        Alcotest.test_case "node heap growth" `Quick test_node_heap_grow;
        Alcotest.test_case "workspace growth" `Quick test_workspace_growth;
        qcheck prop_dag_init_matches_bf;
        qcheck prop_dag_init_same_potentials;
        qcheck prop_spfa_workspace_reuse;
      ] );
    ( "flow.anytime",
      [
        Alcotest.test_case "budget validation" `Quick test_budget_validation;
        Alcotest.test_case "round budgets" `Quick test_budget_rounds;
        Alcotest.test_case "copy potentials" `Quick test_copy_potentials;
        qcheck prop_anytime_prefix_optimal;
      ] );
    ( "flow.solver",
      [
        Alcotest.test_case "graph truncate" `Quick test_graph_truncate;
        Alcotest.test_case "graph set_capacity" `Quick test_graph_set_capacity;
        Alcotest.test_case "registry" `Quick test_solver_registry;
        Alcotest.test_case "scratch backends" `Quick
          test_solver_scratch_backends;
        Alcotest.test_case "session discipline" `Quick
          test_solver_session_discipline;
        qcheck prop_incremental_matches_scratch;
      ] );
  ]
