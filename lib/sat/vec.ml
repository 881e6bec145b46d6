type 'a t = { mutable data : 'a array; mutable sz : int; dummy : 'a }

let create ?(capacity = 16) ~dummy () =
  { data = Array.make (max capacity 1) dummy; sz = 0; dummy }

let grow v =
  let n = Array.length v.data in
  let data = Array.make (2 * n) v.dummy in
  Array.blit v.data 0 data 0 v.sz;
  v.data <- data

let push v x =
  if v.sz = Array.length v.data then grow v;
  Array.unsafe_set v.data v.sz x;
  v.sz <- v.sz + 1
