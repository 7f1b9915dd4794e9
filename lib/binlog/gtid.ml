(* Global Transaction Identifier: (server_uuid, gno).

   As in MySQL, the uuid identifies the server that first wrote the
   transaction and gno is a monotonically increasing counter on that
   server.  We use readable server names in place of 128-bit uuids. *)

type t = { source : string; gno : int }

let make ~source ~gno =
  assert (gno >= 1);
  { source; gno }

let source t = t.source

let gno t = t.gno

let equal a b = a.source = b.source && a.gno = b.gno

let to_string t = Printf.sprintf "%s:%d" t.source t.gno
