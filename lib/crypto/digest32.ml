type t = string

let size = 32

let of_raw s =
  if String.length s <> size then invalid_arg "Digest32.of_raw: need 32 bytes";
  s

let hash_string s = Sha256.digest_string s
let to_raw t = t
let to_hex t = Clanbft_util.Hex.encode t
let short t = String.sub (to_hex t) 0 8
let equal = String.equal
let compare = String.compare

(* The digest is already uniform; fold the first 8 bytes into an int. *)
let hash t =
  let v = ref 0 in
  for i = 0 to 7 do
    v := (!v lsl 8) lor Char.code t.[i]
  done;
  !v land max_int

let zero = String.make size '\x00'
let pp ppf t = Format.pp_print_string ppf (short t)

module Key = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
  let compare = compare
end

module Tbl = Hashtbl.Make (Key)
module Map = Map.Make (Key)

let charge_once digest words () =
  let seen = Tbl.create 64 in
  fun x ->
    let d = digest x in
    let same = Option.value ~default:[] (Tbl.find_opt seen d) in
    if List.memq x same then 0
    else begin
      Tbl.replace seen d (x :: same);
      words x
    end
