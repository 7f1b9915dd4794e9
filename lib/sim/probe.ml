(* Generic write-availability probe.

   Issues a probe operation every [interval]; the embedder's [issue]
   closure performs the actual write and reports the outcome (or never
   calls back, in which case the timeout records a failure).  Downtime is
   measured client-side as the largest gap between consecutive successes
   — the metric behind Table 2. *)

type t = {
  engine : Engine.t;
  interval : float;
  timeout : float;
  issue : on_outcome:(bool -> unit) -> unit;
  mutable success_times : float list; (* newest first *)
  mutable failure_times : float list;
  mutable running : bool;
}

let successes t = List.length t.success_times

let failures t = List.length t.failure_times

let success_times t = List.rev t.success_times

(* The attempt's timeout is cancelled once an outcome arrives, so a
   settled attempt leaves nothing queued. *)
let attempt t =
  let settled = ref false in
  let timeout = ref None in
  t.issue ~on_outcome:(fun ok ->
      (* [t.running] gate: a probe stopped mid-flight must not record
         outcomes delivered (or timed out) after [stop]. *)
      if (not !settled) && t.running then begin
        settled := true;
        Option.iter Engine.cancel !timeout;
        let now = Engine.now t.engine in
        if ok then t.success_times <- now :: t.success_times
        else t.failure_times <- now :: t.failure_times
      end);
  if not !settled then
    timeout :=
      Some
        (Engine.schedule t.engine ~delay:t.timeout (fun () ->
             if (not !settled) && t.running then begin
               settled := true;
               t.failure_times <- Engine.now t.engine :: t.failure_times
             end))

let start ?(interval = 5.0 *. Engine.ms) ?(timeout = 1.0 *. Engine.s) engine ~issue =
  let t =
    {
      engine;
      interval;
      timeout;
      issue;
      success_times = [];
      failure_times = [];
      running = true;
    }
  in
  let rec tick () =
    if t.running then begin
      attempt t;
      ignore (Engine.schedule engine ~delay:t.interval tick)
    end
  in
  ignore (Engine.schedule engine ~delay:t.interval tick);
  t

let stop t = t.running <- false

(* Largest gap between consecutive successful commits in the window. *)
let max_downtime t ~start_time ~end_time =
  let times = List.filter (fun x -> x >= start_time && x <= end_time) (success_times t) in
  match times with
  | [] -> end_time -. start_time
  | first :: rest ->
    let rec scan prev best = function
      | [] -> max best (end_time -. prev)
      | x :: tail -> scan x (max best (x -. prev)) tail
    in
    scan first (first -. start_time) rest
