(* Raft OpId: the (term, index) pair MyRaft stamps on every transaction in
   addition to its GTID.  Index 0 / term 0 is the sentinel that precedes
   any real entry. *)

type t = { term : int; index : int }

let make ~term ~index =
  assert (term >= 0 && index >= 0);
  { term; index }

let zero = { term = 0; index = 0 }

let term t = t.term

let index t = t.index

let compare a b =
  match Int.compare a.term b.term with 0 -> Int.compare a.index b.index | c -> c

let equal a b = a.term = b.term && a.index = b.index

(* Raft log up-to-date comparison: higher term wins, then higher index. *)
let at_least_as_up_to_date_as a b = compare a b >= 0

let to_string t = Printf.sprintf "%d.%d" t.term t.index
