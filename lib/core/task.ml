type t = {
  id : int;
  loc : Ltc_geo.Point.t;
  epsilon : float option;
}

let make ?epsilon ~id ~loc () =
  (match epsilon with
  | Some e when not (e > 0.0 && e < 1.0) ->
    invalid_arg "Task.make: epsilon must lie in (0, 1)"
  | Some _ | None -> ());
  if not Ltc_geo.Point.(Float.is_finite loc.x && Float.is_finite loc.y) then
    invalid_arg "Task.make: location must be finite";
  { id; loc; epsilon }

let pp fmt t =
  match t.epsilon with
  | None -> Format.fprintf fmt "t%d@%a" t.id Ltc_geo.Point.pp t.loc
  | Some e -> Format.fprintf fmt "t%d@%a(eps=%g)" t.id Ltc_geo.Point.pp t.loc e

type answer = Yes | No

let answer_sign = function Yes -> 1.0 | No -> -1.0
let negate = function Yes -> No | No -> Yes
let answer_equal a b = match (a, b) with
  | Yes, Yes | No, No -> true
  | Yes, No | No, Yes -> false
