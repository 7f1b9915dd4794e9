(* Growable array (OCaml 5.1 predates Stdlib.Dynarray).

   Supports O(1) push/pop at the back and O(1) random access; used for log
   entry storage where the Raft index maps directly to a vector slot. *)

type 'a t = { mutable data : 'a array; mutable size : int; dummy : 'a }

let create ~dummy = { data = Array.make 8 dummy; size = 0; dummy }

let length t = t.size

let get t i =
  if i < 0 || i >= t.size then invalid_arg "Vec.get: out of bounds";
  t.data.(i)

let get_opt t i = if i < 0 || i >= t.size then None else Some t.data.(i)

let set t i v =
  if i < 0 || i >= t.size then invalid_arg "Vec.set: out of bounds";
  t.data.(i) <- v

let push t v =
  if t.size = Array.length t.data then begin
    let data = Array.make (2 * t.size) t.dummy in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end;
  t.data.(t.size) <- v;
  t.size <- t.size + 1

(* Shrink to [n] elements, returning the removed tail (front-to-back order). *)
let truncate_to t n =
  if n < 0 || n > t.size then invalid_arg "Vec.truncate_to";
  let removed = Array.to_list (Array.sub t.data n (t.size - n)) in
  for i = n to t.size - 1 do
    t.data.(i) <- t.dummy
  done;
  t.size <- n;
  removed

let to_list t = List.init t.size (fun i -> t.data.(i))

(* Elements in [lo, hi) as a list. *)
let slice t ~lo ~hi =
  let lo = max 0 lo and hi = min t.size hi in
  if hi <= lo then [] else List.init (hi - lo) (fun i -> t.data.(lo + i))
