type t = {
  index : int;
  loc : Ltc_geo.Point.t;
  accuracy : float;
  capacity : int;
}

let make ~index ~loc ~accuracy ~capacity =
  if index < 1 then invalid_arg "Worker.make: index must be >= 1";
  if capacity < 1 then invalid_arg "Worker.make: capacity must be >= 1";
  (* Written so that NaN fails it too. *)
  if not (accuracy >= 0.0 && accuracy <= 1.0) then
    invalid_arg "Worker.make: accuracy out of [0, 1]";
  if not Ltc_geo.Point.(Float.is_finite loc.x && Float.is_finite loc.y) then
    invalid_arg "Worker.make: location must be finite";
  { index; loc; accuracy; capacity }

let pp fmt w =
  Format.fprintf fmt "w%d@%a(p=%.2f, K=%d)" w.index Ltc_geo.Point.pp w.loc
    w.accuracy w.capacity
