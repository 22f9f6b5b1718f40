type t =
  | Sigmoid of { dmax : float }
  | Historical
  | Custom of { name : string; f : Worker.t -> Task.t -> float }

let[@inline] clamp01 x = Float.max 0.0 (Float.min 1.0 x)

(* The model and the Hoeffding weight, written once: [w]'s answer on
   [task] at squared distance [d2], as [Acc] or, under [star], as [Acc*].
   The scalar entry points and [fill_weights] both inline it; under dune's
   [-opaque] dev profile a float crossing a module boundary is boxed, so
   the per-candidate loop lives here, beside the formula. *)
let[@inline] weight_at t ~star (w : Worker.t) (task : Task.t) d2 =
  let a =
    match t with
    | Sigmoid { dmax } ->
      clamp01 (w.accuracy /. (1.0 +. exp (-.(dmax -. sqrt d2))))
    | Historical -> clamp01 w.accuracy
    | Custom { f; _ } -> clamp01 (f w task)
  in
  if star then
    let x = (2.0 *. a) -. 1.0 in
    x *. x
  else a

let acc t (w : Worker.t) (task : Task.t) =
  weight_at t ~star:false w task (Ltc_geo.Point.distance_sq w.loc task.loc)

let acc_star t (w : Worker.t) (task : Task.t) =
  weight_at t ~star:true w task (Ltc_geo.Point.distance_sq w.loc task.loc)

let fill_weights t ~star w (tasks : Task.t array) ~ids ~d2 weights lo hi =
  for k = lo to hi - 1 do
    weights.(k) <- weight_at t ~star w tasks.(ids.(k)) d2.(k)
  done

let default_dmax = 30.0

let pp fmt = function
  | Sigmoid { dmax } -> Format.fprintf fmt "sigmoid(dmax=%g)" dmax
  | Historical -> Format.fprintf fmt "historical"
  | Custom { name; _ } -> Format.fprintf fmt "custom(%s)" name
