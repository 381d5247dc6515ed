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
  trim : int;
  vs : Vec.t array; (* sorted by Vec.compare *)
}

module H = Hashtbl.Make (struct
  type t = key

  let equal a b =
    a.trim = b.trim
    && Array.length a.vs = Array.length b.vs
    &&
    let n = Array.length a.vs in
    let rec go i = i = n || (Vec.same_bits a.vs.(i) b.vs.(i) && go (i + 1)) in
    go 0

  let hash k =
    let h = ref ((k.trim + 1) * 0x01000193) in
    Array.iter (fun v -> h := (!h * 0x01000193) lxor Vec.hash v) k.vs;
    !h land max_int
end)

type t = {
  tbl : Vec.t option H.t;
  mutable hits : int;
  mutable misses : int;
}

let create () = { tbl = H.create 64; hits = 0; misses = 0 }
let hits t = t.hits
let misses t = t.misses
let size t = H.length t.tbl

let new_value_arr cache ~t vs =
  (* Canonicalise the order here so permutations of one multiset share an
     entry; [Safe_area.new_value_arr] re-sorts its own copy, which is
     idempotent and cheap next to the kernel. *)
  let vs = Array.copy vs in
  Array.sort Vec.compare vs;
  let key = { trim = t; vs } in
  match H.find_opt cache.tbl key with
  | Some r ->
      cache.hits <- cache.hits + 1;
      r
  | None ->
      cache.misses <- cache.misses + 1;
      let r = Safe_area.new_value_arr ~t vs in
      H.add cache.tbl key r;
      r
