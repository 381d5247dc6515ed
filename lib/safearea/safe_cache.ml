(* Memoised safe-area update values, shared across the parties of one run.
   ΠAA's update rule is a pure function of (trim, multiset): under
   any schedule where several honest parties assemble the same report
   multiset in the same iteration — which is every party, every iteration,
   in a synchronous run without equivocation — the geometry kernel redoes
   the same O(C(m, m-t)) intersection per party. Keying on the
   canonically-sorted multiset collapses those to one computation. The
   cached vector is exactly what the uncached call would have returned
   (same inputs, deterministic kernel), so results are bit-identical;
   sharing the physical vector is safe because [Vec.t] is immutable.
   Keys match on [Vec.same_bits], not [Vec.compare]: a multiset of -0.
   and one of 0. compare equal but their new values differ in sign. *)

type key = {
  mutable trim : int;
  mutable vs : Vec.t array; (* sorted by Vec.compare *)
}

module H = Hashtbl.Make (struct
  type t = key

  let rec same_from a b i =
    i = Array.length a || (Vec.same_bits a.(i) b.(i) && same_from a b (i + 1))

  let equal a b =
    a.trim = b.trim
    && Array.length a.vs = Array.length b.vs
    && same_from a.vs b.vs 0

  let rec hash_from vs h i =
    if i = Array.length vs then h land max_int
    else hash_from vs ((h * 0x01000193) lxor Vec.hash vs.(i)) (i + 1)

  let hash k = hash_from k.vs ((k.trim + 1) * 0x01000193) 0
end)

type t = {
  tbl : Vec.t option H.t;
  probe : key;  (* the lookup key, over [scratch] arrays *)
  mutable scratch : Vec.t array array;  (* by length *)
  mutable hits : int;
  mutable misses : int;
}

let create () =
  {
    tbl = H.create 64;
    probe = { trim = 0; vs = [||] };
    scratch = [||];
    hits = 0;
    misses = 0;
  }

let hits t = t.hits
let misses t = t.misses
let size t = H.length t.tbl

let scratch cache len =
  if len >= Array.length cache.scratch then begin
    let grown = Array.make (len + 1) [||] in
    Array.blit cache.scratch 0 grown 0 (Array.length cache.scratch);
    cache.scratch <- grown
  end;
  if Array.length cache.scratch.(len) <> len then
    cache.scratch.(len) <- Array.make len (Vec.zero 0);
  cache.scratch.(len)

let new_value_arr cache ~t vs =
  (* Canonicalise the order here so permutations of one multiset share an
     entry: a sorted copy in a reused scratch array, so a hit allocates
     only what [Array.sort] does; the key keeps its own copy on a miss.
     [Safe_area.new_value_arr] re-sorts its own copy, which is idempotent
     and cheap next to the kernel. *)
  let probe = cache.probe in
  probe.trim <- t;
  probe.vs <- scratch cache (Array.length vs);
  Array.blit vs 0 probe.vs 0 (Array.length vs);
  Array.sort Vec.compare probe.vs;
  match H.find cache.tbl probe with
  | r ->
      cache.hits <- cache.hits + 1;
      r
  | exception Not_found ->
      cache.misses <- cache.misses + 1;
      let key = { trim = t; vs = Array.copy probe.vs } in
      let r = Safe_area.new_value_arr ~t key.vs in
      H.add cache.tbl key r;
      r
