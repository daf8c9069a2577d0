type t = { words : int array; capacity : int; mutable count : int }

let words_for n = (n + 62) / 63

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { words = Array.make (max 1 (words_for n)) 0; capacity = n; count = 0 }

let capacity t = t.capacity

let check t i =
  if i < 0 || i >= t.capacity then invalid_arg "Bitset: index out of range"

let mem t i =
  check t i;
  t.words.(i / 63) land (1 lsl (i mod 63)) <> 0

let add t i =
  check t i;
  let w = i / 63 and b = 1 lsl (i mod 63) in
  if t.words.(w) land b <> 0 then false
  else begin
    t.words.(w) <- t.words.(w) lor b;
    t.count <- t.count + 1;
    true
  end

let remove t i =
  check t i;
  let w = i / 63 and b = 1 lsl (i mod 63) in
  if t.words.(w) land b = 0 then false
  else begin
    t.words.(w) <- t.words.(w) land lnot b;
    t.count <- t.count - 1;
    true
  end

let cardinal t = t.count
let is_empty t = t.count = 0

let iter f t =
  for w = 0 to Array.length t.words - 1 do
    let word = t.words.(w) in
    if word <> 0 then
      for b = 0 to 62 do
        if word land (1 lsl b) <> 0 then f ((w * 63) + b)
      done
  done

(* Byte [j] of the LSB-first packed bitmap: bit p of the result is member
   8j + p. Words hold 63 bits, so a byte can straddle two words; gathering
   it with shifts replaces the per-member read-modify-write loop the wire
   codec used to run. *)
let byte t j =
  if j < 0 || j * 8 >= t.capacity then invalid_arg "Bitset.byte";
  let lo = j * 8 in
  let w = lo / 63 and off = lo mod 63 in
  let bits = t.words.(w) lsr off in
  let bits =
    if off > 55 && w + 1 < Array.length t.words then
      bits lor (t.words.(w + 1) lsl (63 - off))
    else bits
  in
  bits land 0xff

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list n l =
  let t = create n in
  List.iter (fun i -> ignore (add t i)) l;
  t

let copy t = { t with words = Array.copy t.words }

let union_into ~dst src =
  if dst.capacity <> src.capacity then invalid_arg "Bitset.union_into";
  let count = ref 0 in
  for w = 0 to Array.length dst.words - 1 do
    let merged = dst.words.(w) lor src.words.(w) in
    dst.words.(w) <- merged;
    (* popcount via Kernighan's loop; word count is tiny so this is cheap *)
    let x = ref merged in
    while !x <> 0 do
      x := !x land (!x - 1);
      incr count
    done
  done;
  dst.count <- !count

let inter_cardinal a b =
  if a.capacity <> b.capacity then invalid_arg "Bitset.inter_cardinal";
  let count = ref 0 in
  for w = 0 to Array.length a.words - 1 do
    let x = ref (a.words.(w) land b.words.(w)) in
    while !x <> 0 do
      x := !x land (!x - 1);
      incr count
    done
  done;
  !count

let approx_live_words t = 4 + Array.length t.words + 1

let equal a b = a.capacity = b.capacity && a.words = b.words

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (to_list t)
