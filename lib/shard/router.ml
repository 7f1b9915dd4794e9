(* Keyspace partitioning for the multi-Raft deployment.

   A write or read names a (table, key) pair; the router hashes it to
   one of the M Raft groups.  The hash is FNV-1a over the table name, a
   0x00 separator, and the key bytes — fixed constants, no seed, so the
   mapping is stable across processes, runs, and group lookups (a key
   observed in shard g at write time is in shard g forever; resharding
   is out of scope).

   The router also memoizes each group's last-known leader so clients
   hit the right node first and only pay a redirect on stale cache
   (NotLeader rejections invalidate the entry). *)

let fnv_offset_basis = 0xcbf29ce484222325L

let fnv_prime = 0x100000001b3L

let fnv1a_byte h b =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

let fnv1a_string h s =
  let h = ref h in
  String.iter (fun c -> h := fnv1a_byte !h (Char.code c)) s;
  !h

(* The raw 64-bit FNV-1a digest of (table, key); exposed for the
   stability unit test. *)
let hash ~table ~key =
  let h = fnv1a_string fnv_offset_basis table in
  let h = fnv1a_byte h 0 in
  fnv1a_string h key

type t = { groups : int; leader_cache : (int, string) Hashtbl.t }

let create ~groups () =
  if groups <= 0 then invalid_arg "Shard.Router.create: groups must be positive";
  { groups; leader_cache = Hashtbl.create 16 }

let group_of t ~table ~key =
  (* Fold the digest to a bucket via unsigned modulo. *)
  Int64.to_int (Int64.unsigned_rem (hash ~table ~key) (Int64.of_int t.groups))

let cached_leader t ~group = Hashtbl.find_opt t.leader_cache group

let note_leader t ~group ~node = Hashtbl.replace t.leader_cache group node

let invalidate_leader t ~group = Hashtbl.remove t.leader_cache group
