type kind = Offline | Online

type t = {
  name : string;
  kind : kind;
  run : seed:int -> Ltc_core.Instance.t -> Engine.outcome;
  policy : (Ltc_util.Rng.t -> Engine.policy) option;
}

(* Deterministic algorithms ignore the seed; keeping it in the signature
   lets one dispatch surface drive both them and the seeded baselines with
   the caller's per-repetition seed (Runner threads it through every
   sweep cell). *)
let offline name (run : Ltc_core.Instance.t -> Engine.outcome) =
  { name; kind = Offline; run = (fun ~seed:_ i -> run i); policy = None }

let base_off = offline Base_off.name Base_off.run
let mcf_ltc = offline Mcf_ltc.name Mcf_ltc.run

(* An online entry's batch run is the engine over its policy, drawing
   from a generator seeded per run (Random's stream; the rest draw
   nothing). *)
let online name policy =
  {
    name;
    kind = Online;
    run =
      (fun ~seed i -> Engine.run ~name (policy (Ltc_util.Rng.create ~seed)) i);
    policy = Some policy;
  }

let random = online Random_assign.name Random_assign.policy_with_rng
let laf = online Laf.name (fun _rng -> Laf.policy)
let aam = online Aam.name (fun _rng -> Aam.policy)
let lgf = online "LGF-only" (fun _rng -> Strategies.lgf_policy)
let lrf = online "LRF-only" (fun _rng -> Strategies.lrf_policy)
let nearest_first = online "Nearest" (fun _rng -> Strategies.nearest_policy)

let paper = [ base_off; mcf_ltc; random; laf; aam ]

let all = paper @ [ lgf; lrf; nearest_first ]

let names () = List.map (fun t -> t.name) all

let find_opt name =
  let target = String.lowercase_ascii name in
  List.find_opt (fun t -> String.lowercase_ascii t.name = target) all

let find name =
  match find_opt name with
  | Some t -> t
  | None ->
    invalid_arg
      (Printf.sprintf "unknown algorithm %S (try: %s)" name
         (String.concat ", " (names ())))

let pp_kind fmt = function
  | Offline -> Format.fprintf fmt "offline"
  | Online -> Format.fprintf fmt "online"
