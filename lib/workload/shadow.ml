(* MyShadow (§5.1): "a testing tool which generates a
   production-representative workload and allows us to test services in
   an isolated environment."

   A shadow trace is a recorded sequence of timed write operations.  The
   same trace can be replayed against any backend — which is exactly how
   the §6.1 A/B test should be run: both stacks see *identical*
   operations at identical offsets, so nothing but the replication stack
   differs. *)

type op = {
  at : float; (* offset from trace start, microseconds *)
  table : string;
  key : string;
  value_size : int;
}

type trace = { ops : op list (* ascending by [at] *); trace_duration : float }

let length trace = List.length trace.ops

let ops trace = trace.ops

(* Synthesize a production-representative trace: Poisson arrivals,
   Zipf-ish key popularity over [key_space], lognormal payload sizes.
   Deterministic in [seed]. *)
let record ?(table = "shadow") ?(key_space = 100_000) ?(value_mu = log 420.0)
    ?(value_sigma = 0.45) ~seed ~rate_per_s ~duration () =
  let rng = Sim.Rng.of_int seed in
  let mean_gap = Sim.Engine.s /. rate_per_s in
  let rec generate at acc =
    if at > duration then List.rev acc
    else begin
      let key =
        (* mild skew: half the traffic hits a hot tenth of the key space *)
        if Sim.Rng.bool rng then
          Printf.sprintf "row-%d" (Sim.Rng.int rng (max 1 (key_space / 10)))
        else Printf.sprintf "row-%d" (Sim.Rng.int rng key_space)
      in
      let value_size =
        max 16 (int_of_float (Sim.Rng.lognormal rng ~mu:value_mu ~sigma:value_sigma))
      in
      let op = { at; table; key; value_size } in
      generate (at +. Sim.Rng.exponential rng ~mean:mean_gap) (op :: acc)
    end
  in
  { ops = generate 0.0 []; trace_duration = duration }

(* Replay a trace against a backend through a generator client: each op
   is issued at its recorded offset.  Returns the generator so callers
   read its stats when the replay window closes. *)
let replay ?(client_id = "shadow-client") ?(region = "clients") ?client_latency trace
    ~backend =
  let gen =
    Generator.create ~backend ~client_id ~region ?client_latency
      ~bucket_width:Sim.Engine.s ()
  in
  let engine = backend.Backend.engine in
  List.iter
    (fun op ->
      ignore
        (Sim.Engine.schedule engine ~delay:op.at (fun () ->
             Generator.issue_op gen ~table:op.table ~key:op.key ~value_size:op.value_size)))
    trace.ops;
  gen

(* Shadow A/B: replay the same trace on both stacks and return both
   generators' stats — the §6.1 comparison with identical inputs. *)
let total_bytes trace =
  List.fold_left (fun acc op -> acc + op.value_size) 0 trace.ops
