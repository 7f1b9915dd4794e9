(* CRC-32 (IEEE 802.3 polynomial, reflected), the checksum MySQL stamps on
   binlog events.  MyRaft generates it at OpId-assignment time to detect
   later corruption; we verify it when the log abstraction reads entries
   back for lagging followers.

   The arithmetic runs on native [int]s (the running CRC fits 32 bits, an
   OCaml int holds 63): a boxed-[Int32] loop allocates a fresh box per
   input byte, which on the commit hot path — one CRC per flushed entry
   plus one per engine commit per node — dominated the minor heap.  The
   streaming [feed_*] API exists for digests computed over structured
   fields (the engine's commit-digest chain): callers fold fields in
   directly instead of marshalling them into a throwaway string first. *)

(* Slicing-by-8 tables, flat: slot [(k * 256) + n] holds the CRC of byte
   [n] followed by [k] zero bytes.  Row 0 is the classic bytewise table;
   row k extends row k-1 by one zero byte, so eight rows fold a whole
   8-byte block into the state with eight independent lookups instead of
   eight dependent byte steps. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

(* Running (pre-inversion) CRC state: an immediate int, never boxed. *)
type state = int

let init = 0xFFFFFFFF

(* Every index below is masked to a byte within its row, so the table
   reads are unchecked. *)
let[@inline] at row b = Array.unsafe_get tables ((row * 256) + b)

let[@inline] feed_byte crc b = at 0 ((crc lxor b) land 0xFF) lxor (crc lsr 8)

(* Fold one 8-byte block, given as its low and high little-endian
   32-bit halves, into the state. *)
let[@inline] feed_block crc lo hi =
  let x = crc lxor lo in
  at 7 (x land 0xFF)
  lxor at 6 ((x lsr 8) land 0xFF)
  lxor at 5 ((x lsr 16) land 0xFF)
  lxor at 4 (x lsr 24)
  lxor at 3 (hi land 0xFF)
  lxor at 2 ((hi lsr 8) land 0xFF)
  lxor at 1 ((hi lsr 16) land 0xFF)
  lxor at 0 (hi lsr 24)

let[@inline] get32 s i = Int32.to_int (String.get_int32_le s i) land 0xFFFFFFFF

let feed_string crc s =
  let len = String.length s in
  let blocks_end = len land lnot 7 in
  let crc = ref crc in
  let i = ref 0 in
  while !i < blocks_end do
    crc := feed_block !crc (get32 s !i) (get32 s (!i + 4));
    i := !i + 8
  done;
  for j = blocks_end to len - 1 do
    crc := feed_byte !crc (Char.code (String.unsafe_get s j))
  done;
  !crc

(* Feed a native int as 8 little-endian bytes (ints on the hot path are
   log indexes, terms and GNOs — all well under 2^63). *)
let feed_int crc n = feed_block crc (n land 0xFFFFFFFF) ((n lsr 32) land 0xFFFFFFFF)

(* The final CRC's 32 bits as a non-negative int: digests kept in bulk
   (entries, the engine's chain) hold it unboxed. *)
let finalize crc = crc lxor 0xFFFFFFFF

let string s = Int32.of_int (finalize (feed_string init s))
