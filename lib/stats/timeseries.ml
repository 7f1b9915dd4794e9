(* Fixed-width-bucket time series of counts (commits per unit time).

   Used for the throughput panels (Figure 5b/5d): record one event per
   commit with its virtual timestamp; [series] returns commits-per-bucket
   rows; [render] draws the two series side by side. *)

type t = {
  bucket_width : float; (* microseconds *)
  counts : (int, int ref) Hashtbl.t;
  mutable first : float;
  mutable last : float;
  mutable total : int;
}

let create ~bucket_width =
  assert (bucket_width > 0.0);
  { bucket_width; counts = Hashtbl.create 64; first = infinity; last = neg_infinity; total = 0 }

let record t time =
  let b = int_of_float (time /. t.bucket_width) in
  (match Hashtbl.find_opt t.counts b with
  | Some r -> incr r
  | None -> Hashtbl.replace t.counts b (ref 1));
  if time < t.first then t.first <- time;
  if time > t.last then t.last <- time;
  t.total <- t.total + 1

let total t = t.total

(* (bucket_start_time, count) rows covering the full observed range, with
   zero-filled gaps. *)
let series t =
  if t.total = 0 then []
  else begin
    let b0 = int_of_float (t.first /. t.bucket_width) in
    let b1 = int_of_float (t.last /. t.bucket_width) in
    List.init
      (b1 - b0 + 1)
      (fun i ->
        let b = b0 + i in
        let c = match Hashtbl.find_opt t.counts b with Some r -> !r | None -> 0 in
        (float_of_int b *. t.bucket_width, c))
  end

let mean_rate_per_bucket t =
  match series t with
  | [] -> 0.0
  | rows ->
    let sum = List.fold_left (fun acc (_, c) -> acc + c) 0 rows in
    float_of_int sum /. float_of_int (List.length rows)

(* Render two aligned series, one character column per bucket. *)
let render_pair ~label_a a ~label_b b ~width =
  let rows_a = series a and rows_b = series b in
  let take rows =
    let arr = Array.of_list (List.map snd rows) in
    if Array.length arr <= width then arr
    else begin
      (* downsample by averaging groups *)
      let group = (Array.length arr + width - 1) / width in
      Array.init
        ((Array.length arr + group - 1) / group)
        (fun i ->
          let start = i * group in
          let stop = min (Array.length arr) (start + group) in
          let sum = ref 0 in
          for j = start to stop - 1 do
            sum := !sum + arr.(j)
          done;
          (* Round to nearest rather than floor: floor renders low-rate
             groups (avg < 1 event/bucket) as blank even though activity
             happened there.  Any nonzero group stays >= 1. *)
          let n = stop - start in
          let avg = ((2 * !sum) + n) / (2 * n) in
          if !sum > 0 then max 1 avg else 0)
    end
  in
  let va = take rows_a and vb = take rows_b in
  let maxc =
    max (Array.fold_left max 1 va) (Array.fold_left max 1 vb)
  in
  let line arr =
    String.init (Array.length arr) (fun i ->
        let level = arr.(i) * 8 / maxc in
        (* nonzero counts always show at least the faintest glyph *)
        let level = if arr.(i) > 0 then max 1 level else level in
        " .:-=+*#%".[min 8 level])
  in
  Printf.sprintf "  %-12s |%s|\n  %-12s |%s|\n  (peak bucket = %d commits)\n" label_a
    (line va) label_b (line vb) maxc
