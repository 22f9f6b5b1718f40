module Fault = Ltc_util.Fault
module Metrics = Ltc_util.Metrics

type overload = Block | Shed

type config = { max_restarts : int; overload : overload }

let default = { max_restarts = 3; overload = Block }

(* Fleet-wide health counters; registration is idempotent, so every
   supervised server shares one series per name. *)
let restarts_total =
  Metrics.counter ~help:"Shard sessions restored online after a crash"
    "ltc_shard_restarts_total"

let shed_total =
  Metrics.counter ~help:"Arrivals shed by overload admission control"
    "ltc_shard_shed_total"

let quarantined_gauge =
  Metrics.gauge ~help:"Shards quarantined after exhausting their restart budget"
    "ltc_shard_quarantined"

type t = {
  config : config;
  restarts : int array;  (* per shard, successful-or-attempted restarts *)
  quarantined : bool array;
  mutable shed : int;
}

let create ~shards config =
  if shards < 1 then invalid_arg "Supervisor.create: shards must be >= 1";
  if config.max_restarts < 0 then
    invalid_arg "Supervisor.create: max_restarts must be >= 0";
  {
    config;
    restarts = Array.make shards 0;
    quarantined = Array.make shards false;
    shed = 0;
  }

let config t = t.config
let shards t = Array.length t.restarts
let shard_restarts t = Array.copy t.restarts
let restarts t = Array.fold_left ( + ) 0 t.restarts

let quarantined t =
  Array.fold_left (fun acc q -> acc + if q then 1 else 0) 0 t.quarantined

let is_quarantined t ~shard = t.quarantined.(shard)
let shed t = t.shed

let note_shed t =
  t.shed <- t.shed + 1;
  Metrics.Counter.incr shed_total

let scope ~shard = Printf.sprintf "shard%d" shard

let on_crash t ~shard =
  if shard < 0 || shard >= Array.length t.restarts then
    invalid_arg "Supervisor.on_crash: no such shard";
  if t.quarantined.(shard) then `Quarantine
  else if t.restarts.(shard) >= t.config.max_restarts then begin
    t.quarantined.(shard) <- true;
    Metrics.Gauge.add quarantined_gauge 1.0;
    `Quarantine
  end
  else begin
    t.restarts.(shard) <- t.restarts.(shard) + 1;
    Metrics.Counter.incr restarts_total;
    `Restart (Fault.Retry.backoff_s t.restarts.(shard))
  end
