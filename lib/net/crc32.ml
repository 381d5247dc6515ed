(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320), table-driven.

   The frame layer carries both a CRC and a keyed MAC: the CRC is the
   cheap first-line check that catches accidental corruption (torn
   writes, bit flips) with a precise error, while the MAC rejects
   anything an adversary could craft. OCaml's native ints are at least
   63 bits, so the 32-bit arithmetic needs no boxing. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let update crc byte = table.((crc lxor byte) land 0xff) lxor (crc lsr 8)

let digest_sub bytes ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length bytes then
    invalid_arg "Crc32.digest_sub";
  let crc = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    crc := update !crc (Char.code (Bytes.unsafe_get bytes i))
  done;
  !crc lxor 0xFFFFFFFF
