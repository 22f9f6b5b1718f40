open Ltc_workload

type t = {
  id : string;
  panels : string;
  description : string;
  default_scale : float;
  run : jobs:int -> scale:float -> reps:int -> seed:int -> Runner.output list;
}

(* ------------------------------------------------- synthetic panel sweeps *)

let synthetic_instance ~seed spec =
  Synthetic.generate (Ltc_util.Rng.create ~seed) spec

(* Parallel map over a list of independent measurement cells; results come
   back in input order, so aggregation below is identical for every
   [jobs]. *)
let pmap ~jobs xs f =
  let arr = Array.of_list xs in
  Array.to_list (Ltc_util.Pool.run ~jobs (Array.length arr) (fun i -> f arr.(i)))

let standard_tables ~id ~x_header points =
  [
    Runner.latency_table ~title:(id ^ ": latency (max worker index)")
      ~x_header points;
    Runner.runtime_table ~title:(id ^ ": runtime (s)") ~x_header points;
    Runner.memory_table ~title:(id ^ ": memory (MB)") ~x_header points;
  ]

(* A sweep over synthetic specs derived from the bold defaults of Table IV:
   [vary] installs the swept value, then the whole spec is shrunk by
   [scale]. *)
let synthetic_sweep ~id ~x_header ~xs ~vary ~label ~jobs ~scale ~reps ~seed =
  let spec_of x = Spec.scale_synthetic scale (vary Spec.default_synthetic x) in
  let points =
    Runner.sweep ~jobs ~reps ~seed ~xs
      ~label:(fun x -> label (spec_of x))
      ~instance_of:(fun ~seed x -> synthetic_instance ~seed (spec_of x))
      ()
  in
  standard_tables ~id ~x_header points

let fig3_t =
  {
    id = "fig3-T";
    panels = "Fig 3a, 3e, 3i";
    description = "latency/runtime/memory while varying |T| (1000..5000)";
    default_scale = 0.2;
    run =
      (fun ~jobs ~scale ~reps ~seed ->
        synthetic_sweep ~id:"fig3-T" ~x_header:"|T|" ~xs:Spec.n_tasks_sweep
          ~vary:(fun spec n_tasks -> { spec with Spec.n_tasks })
          ~label:(fun spec -> string_of_int spec.Spec.n_tasks)
          ~jobs ~scale ~reps ~seed);
  }

let fig3_k =
  {
    id = "fig3-K";
    panels = "Fig 3b, 3f, 3j";
    description = "latency/runtime/memory while varying capacity K (4..8)";
    default_scale = 0.2;
    run =
      (fun ~jobs ~scale ~reps ~seed ->
        synthetic_sweep ~id:"fig3-K" ~x_header:"K" ~xs:Spec.capacity_sweep
          ~vary:(fun spec capacity -> { spec with Spec.capacity })
          ~label:(fun spec -> string_of_int spec.Spec.capacity)
          ~jobs ~scale ~reps ~seed);
  }

let fig3_acc_normal =
  {
    id = "fig3-accN";
    panels = "Fig 3c, 3g, 3k";
    description =
      "latency/runtime/memory with Normal(mu, 0.05) accuracies, mu 0.82..0.90";
    default_scale = 0.2;
    run =
      (fun ~jobs ~scale ~reps ~seed ->
        synthetic_sweep ~id:"fig3-accN" ~x_header:"mu"
          ~xs:Spec.normal_mu_sweep
          ~vary:(fun spec mu -> { spec with Spec.accuracy = Spec.Normal_acc mu })
          ~label:(fun spec ->
            match spec.Spec.accuracy with
            | Spec.Normal_acc mu -> Printf.sprintf "%.2f" mu
            | Spec.Uniform_acc m -> Printf.sprintf "%.2f" m)
          ~jobs ~scale ~reps ~seed);
  }

let fig3_acc_uniform =
  {
    id = "fig3-accU";
    panels = "Fig 3d, 3h, 3l";
    description =
      "latency/runtime/memory with Uniform accuracies, mean 0.82..0.90";
    default_scale = 0.2;
    run =
      (fun ~jobs ~scale ~reps ~seed ->
        synthetic_sweep ~id:"fig3-accU" ~x_header:"mean"
          ~xs:Spec.uniform_mean_sweep
          ~vary:(fun spec mean ->
            { spec with Spec.accuracy = Spec.Uniform_acc mean })
          ~label:(fun spec ->
            match spec.Spec.accuracy with
            | Spec.Normal_acc mu -> Printf.sprintf "%.2f" mu
            | Spec.Uniform_acc m -> Printf.sprintf "%.2f" m)
          ~jobs ~scale ~reps ~seed);
  }

let fig4_eps =
  {
    id = "fig4-eps";
    panels = "Fig 4a, 4e, 4i";
    description =
      "latency/runtime/memory while varying the tolerable error rate";
    default_scale = 0.2;
    run =
      (fun ~jobs ~scale ~reps ~seed ->
        synthetic_sweep ~id:"fig4-eps" ~x_header:"eps"
          ~xs:Spec.epsilon_sweep
          ~vary:(fun spec epsilon -> { spec with Spec.epsilon })
          ~label:(fun spec -> Printf.sprintf "%.2f" spec.Spec.epsilon)
          ~jobs ~scale ~reps ~seed);
  }

let fig4_scalability =
  {
    id = "fig4-scal";
    panels = "Fig 4b, 4f, 4j";
    description = "scalability: |T| = 10k..100k with |W| = 400k";
    default_scale = 0.02;
    run =
      (fun ~jobs ~scale ~reps ~seed ->
        synthetic_sweep ~id:"fig4-scal" ~x_header:"|T|"
          ~xs:Spec.scalability_sweep
          ~vary:(fun spec (n_tasks, n_workers) ->
            { spec with Spec.n_tasks; n_workers })
          ~label:(fun spec ->
            Printf.sprintf "%d (|W|=%d)" spec.Spec.n_tasks spec.Spec.n_workers)
          ~jobs ~scale ~reps ~seed);
  }

(* ------------------------------------------------------------ city sweeps *)

let city_sweep ~id ~city ~jobs ~scale ~reps ~seed =
  let spec_of epsilon =
    Spec.scale_city scale { city with Spec.c_epsilon = epsilon }
  in
  let points =
    Runner.sweep ~jobs ~reps ~seed ~xs:Spec.epsilon_sweep
      ~label:(fun epsilon -> Printf.sprintf "%.2f" epsilon)
      ~instance_of:(fun ~seed epsilon ->
        City.generate (Ltc_util.Rng.create ~seed) (spec_of epsilon))
      ()
  in
  standard_tables ~id ~x_header:"eps" points

let fig4_new_york =
  {
    id = "fig4-ny";
    panels = "Fig 4c, 4g, 4k";
    description = "New York city workload (Table V), varying error rate";
    default_scale = 0.15;
    run =
      (fun ~jobs ~scale ~reps ~seed ->
        city_sweep ~id:"fig4-ny" ~city:Spec.new_york ~jobs ~scale ~reps ~seed);
  }

let fig4_tokyo =
  {
    id = "fig4-tokyo";
    panels = "Fig 4d, 4h, 4l";
    description = "Tokyo city workload (Table V), varying error rate";
    default_scale = 0.08;
    run =
      (fun ~jobs ~scale ~reps ~seed ->
        city_sweep ~id:"fig4-tokyo" ~city:Spec.tokyo ~jobs ~scale ~reps ~seed);
  }

(* -------------------------------------------------------------- ablations *)

let ablation_batch =
  {
    id = "ablation-batch";
    panels = "Sec. V-B1 (batch-size discussion)";
    description =
      "MCF-LTC latency/runtime as a function of its batch-size factor, \
       with AAM as the online reference";
    default_scale = 0.2;
    run =
      (fun ~jobs ~scale ~reps ~seed ->
        let factors = [ 0.5; 1.0; 1.5; 2.0 ] in
        let spec = Spec.scale_synthetic scale Spec.default_synthetic in
        let algorithms factor =
          [
            {
              Ltc_algo.Algorithm.name = "MCF-LTC";
              kind = Ltc_algo.Algorithm.Offline;
              run =
                (fun ~seed:_ ->
                  Ltc_algo.Mcf_ltc.run
                    ~config:
                      {
                        Ltc_algo.Mcf_ltc.default_config with
                        first_batch_factor = 1.5 *. factor;
                        batch_factor = factor;
                      });
              policy = None;
            };
            Ltc_algo.Algorithm.aam;
          ]
        in
        let points =
          List.concat_map
            (fun factor ->
              Runner.sweep
                ~algorithms:(algorithms factor)
                ~jobs ~reps ~seed ~xs:[ factor ]
                ~label:(Printf.sprintf "%.1f x m")
                ~instance_of:(fun ~seed _ -> synthetic_instance ~seed spec)
                ())
            factors
        in
        [
          Runner.latency_table
            ~title:"ablation-batch: latency vs batch factor" ~x_header:"batch"
            points;
          Runner.runtime_table
            ~title:"ablation-batch: runtime (s) vs batch factor"
            ~x_header:"batch" points;
        ]);
  }

let ablation_strategy =
  {
    id = "ablation-strategy";
    panels = "Sec. IV-B design rationale (LGF vs LRF vs hybrid)";
    description =
      "AAM against its two component strategies run alone, plus LAF";
    default_scale = 0.2;
    run =
      (fun ~jobs ~scale ~reps ~seed ->
        let algorithms =
          [
            Ltc_algo.Algorithm.lgf;
            Ltc_algo.Algorithm.lrf;
            Ltc_algo.Algorithm.nearest_first;
            Ltc_algo.Algorithm.laf;
            Ltc_algo.Algorithm.aam;
          ]
        in
        let spec_of n_tasks =
          Spec.scale_synthetic scale
            { Spec.default_synthetic with Spec.n_tasks }
        in
        let points =
          Runner.sweep ~algorithms ~jobs ~reps ~seed ~xs:Spec.n_tasks_sweep
            ~label:(fun n -> string_of_int (spec_of n).Spec.n_tasks)
            ~instance_of:(fun ~seed n -> synthetic_instance ~seed (spec_of n))
            ()
        in
        [
          Runner.latency_table
            ~title:"ablation-strategy: latency, AAM vs its components"
            ~x_header:"|T|" points;
        ]);
  }

let ablation_approx =
  {
    id = "ablation-approx";
    panels = "Theorems 3, 5, 6 (empirical ratios)";
    description =
      "empirical approximation/competitive ratios against the exact optimum \
       on micro instances";
    default_scale = 1.0;
    run =
      (fun ~jobs ~scale ~reps ~seed ->
        let n_instances = max 4 (int_of_float (scale *. float_of_int (10 * reps))) in
        let bound = function
          | "MCF-LTC" -> Some 7.5
          | "LAF" -> Some 7.967
          | "AAM" -> Some 7.738
          | _ -> None
        in
        let algos = Ltc_algo.Algorithm.paper in
        let spec =
          {
            Spec.default_synthetic with
            Spec.n_tasks = 3;
            n_workers = 40;
            capacity = 2;
            epsilon = 0.2;
            world_side = 14.0;
          }
        in
        (* Each micro instance is solved independently (exact optimum plus
           every algorithm); the ratios are merged afterwards in instance
           order, so the table is the same for every [jobs]. *)
        let per_instance =
          pmap ~jobs (List.init n_instances Fun.id) (fun k ->
              let instance = synthetic_instance ~seed:((seed * 7919) + k) spec in
              match Ltc_algo.Optimal.solve instance with
              | None | Some (0, _) -> None
              | Some (opt, _) ->
                let flow_lb =
                  Option.map
                    (fun low -> float_of_int low /. float_of_int opt)
                    (Ltc_algo.Feasibility.latency_lower_bound instance)
                in
                let ratios =
                  List.filter_map
                    (fun (algo : Ltc_algo.Algorithm.t) ->
                      let o = algo.run ~seed instance in
                      if o.Ltc_algo.Engine.completed then
                        Some
                          ( algo.name,
                            float_of_int o.Ltc_algo.Engine.latency
                            /. float_of_int opt )
                      else None)
                    algos
                in
                Some (flow_lb, ratios))
        in
        let sum = Hashtbl.create 8 in
        let wins = ref 0 in
        let solved = ref 0 in
        let record name ratio =
          let s, mx, n =
            match Hashtbl.find_opt sum name with
            | Some slot -> slot
            | None ->
              let slot = (ref 0.0, ref 0.0, ref 0) in
              Hashtbl.add sum name slot;
              slot
          in
          s := !s +. ratio;
          mx := Float.max !mx ratio;
          incr n
        in
        List.iter
          (function
            | None -> ()
            | Some (flow_lb, ratios) ->
              incr solved;
              Option.iter (record "Flow-LB") flow_lb;
              List.iter
                (fun (name, ratio) ->
                  record name ratio;
                  if ratio <= 1.0 then incr wins)
                ratios)
          per_instance;
        let row_of name =
          match Hashtbl.find_opt sum name with
          | None -> None
          | Some (s, mx, n) ->
            Some
              [
                Ltc_util.Table.Str name;
                Ltc_util.Table.Float (!s /. float_of_int !n);
                Ltc_util.Table.Float !mx;
                (match bound name with
                | Some b -> Ltc_util.Table.Float b
                | None -> Ltc_util.Table.Str "-");
              ]
        in
        let rows =
          List.filter_map
            (fun (algo : Ltc_algo.Algorithm.t) -> row_of algo.name)
            algos
          @ Option.to_list (row_of "Flow-LB")
        in
        [
          {
            Runner.title =
              Printf.sprintf
                "ablation-approx: latency ratio vs exact optimum (%d solved \
                 micro instances)"
                !solved;
            header = [ "algorithm"; "mean ratio"; "max ratio"; "proved bound" ];
            rows;
            float_digits = 3;
          };
        ]);
  }

let ext_noshow =
  {
    id = "ext-noshow";
    panels = "robustness extension (not in the paper)";
    description =
      "online algorithms when assignments are only answered with \
       probability q (the paper assumes q = 1)";
    default_scale = 0.2;
    run =
      (fun ~jobs ~scale ~reps ~seed ->
        let spec = Spec.scale_synthetic scale Spec.default_synthetic in
        let rates = [ 1.0; 0.9; 0.8; 0.7; 0.6 ] in
        let noshow name policy_of rate =
          {
            Ltc_algo.Algorithm.name;
            kind = Ltc_algo.Algorithm.Online;
            run =
              (fun ~seed instance ->
                Ltc_algo.Engine.run
                  ~config:
                    {
                      Ltc_algo.Engine.default_config with
                      accept_rate = Some rate;
                      rng = Some (Ltc_util.Rng.create ~seed:(seed + 17));
                    }
                  ~name (policy_of ~seed) instance);
            policy = None;
          }
        in
        let algorithms rate =
          [
            noshow "Random"
              (fun ~seed -> Ltc_algo.Random_assign.policy ~seed)
              rate;
            noshow "LAF" (fun ~seed:_ -> Ltc_algo.Laf.policy) rate;
            noshow "AAM" (fun ~seed:_ -> Ltc_algo.Aam.policy) rate;
          ]
        in
        let points =
          List.concat_map
            (fun rate ->
              Runner.sweep
                ~algorithms:(algorithms rate)
                ~jobs ~reps ~seed ~xs:[ rate ]
                ~label:(Printf.sprintf "%.1f")
                ~instance_of:(fun ~seed _ -> synthetic_instance ~seed spec)
                ())
            rates
        in
        [
          Runner.latency_table
            ~title:"ext-noshow: latency vs answer (accept) rate"
            ~x_header:"q" points;
        ]);
  }

let ext_buffer =
  {
    id = "ext-buffer";
    panels = "buffered-online extension (Def. 7's deadline relaxation)";
    description =
      "latency when the platform may hold a small buffer of workers before \
       committing, from per-worker (B=1) up to MCF-LTC's batch regime";
    default_scale = 0.2;
    run =
      (fun ~jobs ~scale ~reps ~seed ->
        let spec = Spec.scale_synthetic scale Spec.default_synthetic in
        let buffers = [ 1; 10; 50; 200; 1000 ] in
        let algorithms buffer =
          [
            {
              Ltc_algo.Algorithm.name = Printf.sprintf "Buffered";
              kind = Ltc_algo.Algorithm.Online;
              run = (fun ~seed:_ -> Ltc_algo.Mcf_ltc.run_buffered ~buffer);
              policy = None;
            };
            Ltc_algo.Algorithm.aam;
            Ltc_algo.Algorithm.mcf_ltc;
          ]
        in
        let points =
          List.concat_map
            (fun buffer ->
              Runner.sweep
                ~algorithms:(algorithms buffer)
                ~jobs ~reps ~seed ~xs:[ buffer ] ~label:string_of_int
                ~instance_of:(fun ~seed _ -> synthetic_instance ~seed spec)
                ())
            buffers
        in
        [
          Runner.latency_table
            ~title:
              "ext-buffer: latency vs buffer size (AAM = no buffer, MCF-LTC \
               = Theorem-2 batches)"
            ~x_header:"B" points;
          Runner.runtime_table ~title:"ext-buffer: runtime (s)" ~x_header:"B"
            points;
        ]);
  }

let ext_dynamic =
  {
    id = "ext-dynamic";
    panels = "dynamic-task extension (assumption (i) relaxed)";
    description =
      "tasks posted over the worker stream instead of known upfront: \
       makespan and per-task response time vs the upfront fraction";
    default_scale = 0.2;
    run =
      (fun ~jobs ~scale ~reps ~seed ->
        let spec = Spec.scale_synthetic scale Spec.default_synthetic in
        let fractions = [ 1.0; 0.75; 0.5; 0.25; 0.0 ] in
        let strategies =
          [ Ltc_algo.Dynamic.Laf_d; Ltc_algo.Dynamic.Aam_d ]
        in
        (* Each fraction row replays the same per-rep seeds, so rows are
           independent cells: fan them over the pool. *)
        let rows =
          pmap ~jobs fractions
            (fun fraction ->
              let make_cells strategy =
                let makespans = ref 0.0 and responses = ref 0.0 in
                let all_completed = ref true in
                for rep = 0 to reps - 1 do
                  let rseed = (seed * 611) + rep in
                  let instance = synthetic_instance ~seed:rseed spec in
                  (* Horizon ~ the static latency regime so releases matter. *)
                  let horizon =
                    max 1 (Ltc_core.Instance.worker_count instance / 4)
                  in
                  let release =
                    Ltc_algo.Dynamic.uniform_releases
                      (Ltc_util.Rng.create ~seed:(rseed + 1))
                      ~n_tasks:(Ltc_core.Instance.task_count instance)
                      ~horizon ~upfront_fraction:fraction
                  in
                  let o = Ltc_algo.Dynamic.run ~strategy ~release instance in
                  makespans :=
                    !makespans
                    +. float_of_int o.Ltc_algo.Dynamic.engine.Ltc_algo.Engine.latency;
                  responses := !responses +. o.Ltc_algo.Dynamic.mean_response;
                  all_completed :=
                    !all_completed
                    && o.Ltc_algo.Dynamic.engine.Ltc_algo.Engine.completed
                done;
                let n = float_of_int reps in
                ( !makespans /. n,
                  !responses /. n,
                  !all_completed )
              in
              let cells =
                List.concat_map
                  (fun strategy ->
                    let makespan, response, ok = make_cells strategy in
                    [
                      (if ok then Ltc_util.Table.Float makespan
                       else
                         Ltc_util.Table.Str
                           (Printf.sprintf "%.1f*" makespan));
                      Ltc_util.Table.Float response;
                    ])
                  strategies
              in
              Ltc_util.Table.Str (Printf.sprintf "%.2f" fraction) :: cells)
        in
        [
          {
            Runner.title =
              "ext-dynamic: makespan and mean response vs upfront fraction";
            header =
              [ "upfront"; "LAF-dyn span"; "LAF-dyn resp"; "AAM-dyn span";
                "AAM-dyn resp" ];
            rows;
            float_digits = 1;
          };
        ]);
  }

let ext_inference =
  {
    id = "ext-inference";
    panels = "truth-inference extension (Sec. VI-A, closed loop)";
    description =
      "estimate worker accuracies from h historical answers (one-coin \
       Dawid-Skene EM), run AAM on the estimates, measure latency and real \
       task quality against the known-p_w run";
    default_scale = 1.0;
    run =
      (fun ~jobs ~scale ~reps ~seed ->
        (* The history rows consume ONE shared rng stream in h order (each
           row's warm-up answers continue where the previous row stopped),
           so the rows are sequentially coupled by construction. *)
        ignore jobs;
        ignore reps;
        let trials = max 200 (int_of_float (scale *. 2000.0)) in
        let spec =
          {
            Spec.default_synthetic with
            Spec.n_tasks = 40;
            n_workers = 4000;
            world_side = 120.0;
            epsilon = 0.1;
          }
        in
        let truth_instance = synthetic_instance ~seed spec in
        let workers = truth_instance.Ltc_core.Instance.workers in
        let n_workers = Array.length workers in
        let rng = Ltc_util.Rng.create ~seed:(seed + 3) in
        (* Reference run: the platform knows the true p_w. *)
        let reference = Ltc_algo.Aam.run truth_instance in
        let ref_report =
          Ltc_core.Truth_sim.run ~trials
            (Ltc_util.Rng.create ~seed:(seed + 4))
            truth_instance reference.Ltc_algo.Engine.arrangement
        in
        let history_sizes = [ 3; 5; 10; 20; 40 ] in
        let rows =
          List.map
            (fun h ->
              (* Historical phase: every worker answers h shared warm-up
                 questions; answers sampled from the true accuracies. *)
              let n_hist = max h 8 in
              let observations =
                List.concat
                  (List.init n_workers (fun wi ->
                       let w = workers.(wi) in
                       List.init h (fun _ ->
                           let task = Ltc_util.Rng.int rng n_hist in
                           let correct =
                             Ltc_util.Rng.bernoulli rng w.Ltc_core.Worker.accuracy
                           in
                           (* Ground truth of warm-up task fixed to Yes by
                              symmetry. *)
                           {
                             Ltc_core.Truth_infer.worker = wi + 1;
                             task;
                             answer =
                               (if correct then Ltc_core.Task.Yes
                                else Ltc_core.Task.No);
                           })))
              in
              let inferred =
                Ltc_core.Truth_infer.run ~n_workers ~n_tasks:n_hist
                  observations
              in
              let estimation_error =
                let total = ref 0.0 in
                Array.iteri
                  (fun wi (w : Ltc_core.Worker.t) ->
                    total :=
                      !total
                      +. Float.abs
                           (inferred.Ltc_core.Truth_infer.accuracies.(wi)
                           -. w.accuracy))
                  workers;
                !total /. float_of_int n_workers
              in
              (* The platform now believes the estimates. *)
              let believed_workers =
                Array.mapi
                  (fun wi (w : Ltc_core.Worker.t) ->
                    Ltc_core.Worker.make ~index:w.index ~loc:w.loc
                      ~accuracy:inferred.Ltc_core.Truth_infer.accuracies.(wi)
                      ~capacity:w.capacity)
                  workers
              in
              let believed_instance =
                Ltc_core.Instance.create
                  ~accuracy:truth_instance.Ltc_core.Instance.accuracy
                  ~tasks:truth_instance.Ltc_core.Instance.tasks
                  ~workers:believed_workers ~epsilon:spec.Spec.epsilon ()
              in
              let outcome = Ltc_algo.Aam.run believed_instance in
              (* Reality check: answers sampled from TRUE accuracies. *)
              let actual_accuracy (w : Ltc_core.Worker.t) task =
                let true_w = workers.(w.index - 1) in
                Ltc_core.Accuracy.acc
                  truth_instance.Ltc_core.Instance.accuracy
                  {
                    w with
                    Ltc_core.Worker.accuracy = true_w.Ltc_core.Worker.accuracy;
                  }
                  task
              in
              let report =
                Ltc_core.Truth_sim.run ~trials ~actual_accuracy
                  (Ltc_util.Rng.create ~seed:(seed + 5))
                  believed_instance outcome.Ltc_algo.Engine.arrangement
              in
              [
                Ltc_util.Table.Int h;
                Ltc_util.Table.Float estimation_error;
                Ltc_util.Table.Int outcome.Ltc_algo.Engine.latency;
                Ltc_util.Table.Float report.Ltc_core.Truth_sim.mean_error;
                Ltc_util.Table.Float report.Ltc_core.Truth_sim.max_error;
                Ltc_util.Table.Str
                  (if report.Ltc_core.Truth_sim.max_error <= spec.Spec.epsilon
                   then "yes"
                   else "NO");
              ])
            history_sizes
        in
        [
          {
            Runner.title =
              Printf.sprintf
                "ext-inference: AAM with EM-estimated p_w (reference: \
                 latency %d, mean err %.4f, eps %.2f)"
                reference.Ltc_algo.Engine.latency
                ref_report.Ltc_core.Truth_sim.mean_error spec.Spec.epsilon;
            header =
              [ "h"; "mean |p-p^|"; "latency"; "mean err"; "max err";
                "within eps" ];
            rows;
            float_digits = 4;
          };
        ]);
  }

let hoeffding =
  {
    id = "hoeffding";
    panels = "Definition 4 / quality guarantee";
    description =
      "Monte-Carlo check that completed arrangements meet the tolerable \
       error rate";
    default_scale = 1.0;
    run =
      (fun ~jobs ~scale ~reps ~seed ->
        let trials = max 200 (int_of_float (scale *. 2000.0)) in
        ignore reps;
        (* Every epsilon row builds its instance and Monte-Carlo streams
           from the seed alone — independent cells, pool-friendly. *)
        let rows =
          pmap ~jobs Spec.epsilon_sweep
            (fun epsilon ->
              let spec =
                {
                  Spec.default_synthetic with
                  Spec.n_tasks = 40;
                  n_workers = 4000;
                  world_side = 120.0;
                  epsilon;
                }
              in
              let instance = synthetic_instance ~seed spec in
              let outcome = Ltc_algo.Aam.run instance in
              let report =
                Ltc_core.Truth_sim.run ~trials
                  (Ltc_util.Rng.create ~seed:(seed + 1))
                  instance outcome.Ltc_algo.Engine.arrangement
              in
              [
                Ltc_util.Table.Float epsilon;
                Ltc_util.Table.Float (Ltc_core.Quality.delta ~epsilon);
                Ltc_util.Table.Float report.Ltc_core.Truth_sim.mean_error;
                Ltc_util.Table.Float report.Ltc_core.Truth_sim.max_error;
                Ltc_util.Table.Str
                  (if report.Ltc_core.Truth_sim.max_error <= epsilon then "yes"
                   else "NO");
              ])
        in
        [
          {
            Runner.title =
              Printf.sprintf
                "hoeffding: empirical voting error of AAM arrangements (%d \
                 trials)"
                trials;
            header = [ "eps"; "delta"; "mean err"; "max err"; "within eps" ];
            rows;
            float_digits = 3;
          };
        ]);
  }

let all =
  [
    fig3_t;
    fig3_k;
    fig3_acc_normal;
    fig3_acc_uniform;
    fig4_eps;
    fig4_scalability;
    fig4_new_york;
    fig4_tokyo;
    ablation_batch;
    ablation_strategy;
    ablation_approx;
    ext_noshow;
    ext_buffer;
    ext_dynamic;
    ext_inference;
    hoeffding;
  ]

let find id = List.find_opt (fun e -> e.id = id) all

let ids () = List.map (fun e -> e.id) all
