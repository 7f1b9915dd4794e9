(* Array-backed 4-ary min-heap keyed by (time, sequence).

   The sequence number breaks ties so that events scheduled at the same
   virtual instant fire in scheduling order, which keeps runs
   deterministic.  Because (key, seq) is a total order the pop sequence
   does not depend on the heap's shape, only on what was pushed.

   Stored as a structure of arrays: keys live in a flat [float array]
   (unboxed), so steady-state push/pop allocates nothing beyond the
   occasional capacity doubling.  This heap sits under every simulated
   event, so it is the hottest structure in the whole harness:
   - four children per node halve the depth of a binary heap, and the
     children of [i] are the adjacent slots [4i+1 .. 4i+4];
   - sifting moves a hole instead of swapping, so each level costs one
     write per array rather than three;
   - every index the loops touch is below [size] by construction, so the
     reads are unchecked;
   - the comparisons are written out inline rather than through a helper:
     a helper taking a float key boxes it on every call unless inlined. *)

type 'a t = {
  mutable keys : float array;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable size : int;
}

let create () = { keys = [||]; seqs = [||]; values = [||]; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

let grow t value =
  let capacity = max 16 (2 * Array.length t.keys) in
  let keys = Array.make capacity 0.0 in
  let seqs = Array.make capacity 0 in
  let values = Array.make capacity value in
  Array.blit t.keys 0 keys 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.values 0 values 0 t.size;
  t.keys <- keys;
  t.seqs <- seqs;
  t.values <- values

(* Sift a hole up from the new last slot while (key, seq) orders before
   the hole's parent, then fill it. *)
let push t ~key ~seq value =
  if t.size = Array.length t.keys then grow t value;
  let keys = t.keys and seqs = t.seqs and values = t.values in
  let hole = ref t.size in
  t.size <- t.size + 1;
  let continue = ref true in
  while !continue && !hole > 0 do
    let parent = (!hole - 1) lsr 2 in
    let kp = Array.unsafe_get keys parent in
    if kp < key || (kp = key && Array.unsafe_get seqs parent < seq) then continue := false
    else begin
      Array.unsafe_set keys !hole kp;
      Array.unsafe_set seqs !hole (Array.unsafe_get seqs parent);
      Array.unsafe_set values !hole (Array.unsafe_get values parent);
      hole := parent
    end
  done;
  Array.unsafe_set keys !hole key;
  Array.unsafe_set seqs !hole seq;
  Array.unsafe_set values !hole value

(* Precondition for [min_key] and [pop_min]: the heap is non-empty. *)
let min_key t = t.keys.(0)

(* Take the root, then sift the last element down from a hole at the
   root: at each level the least of up to four children moves up. *)
let pop_min t =
  let values = t.values in
  let top = values.(0) in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    let keys = t.keys and seqs = t.seqs in
    let key = Array.unsafe_get keys n
    and seq = Array.unsafe_get seqs n
    and value = Array.unsafe_get values n in
    let hole = ref 0 in
    let continue = ref true in
    while !continue do
      let first = (4 * !hole) + 1 in
      if first >= n then continue := false
      else begin
        let last = if first + 3 < n then first + 3 else n - 1 in
        let best = ref first in
        let bk = ref (Array.unsafe_get keys first) in
        let bs = ref (Array.unsafe_get seqs first) in
        for c = first + 1 to last do
          let kc = Array.unsafe_get keys c in
          if kc < !bk || (kc = !bk && Array.unsafe_get seqs c < !bs) then begin
            best := c;
            bk := kc;
            bs := Array.unsafe_get seqs c
          end
        done;
        if !bk < key || (!bk = key && !bs < seq) then begin
          Array.unsafe_set keys !hole !bk;
          Array.unsafe_set seqs !hole !bs;
          Array.unsafe_set values !hole (Array.unsafe_get values !best);
          hole := !best
        end
        else continue := false
      end
    done;
    Array.unsafe_set keys !hole key;
    Array.unsafe_set seqs !hole seq;
    Array.unsafe_set values !hole value;
    (* alias the live root instead of retaining the moved-out value *)
    Array.unsafe_set values n (Array.unsafe_get values 0)
  end;
  top
