module Json = Clanbft_util.Json
module Stats = Clanbft_util.Stats

type counter = int ref
type gauge = float ref
type histogram = Stats.Histogram.t

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of Stats.Histogram.t

type instrument = C of counter | G of gauge | H of histogram

(* Key: metric name + labels sorted by key. *)
type key = { name : string; labels : (string * string) list }

type registry = (key, instrument) Hashtbl.t

let create_registry () : registry = Hashtbl.create 64

let normalize ?(labels = []) name =
  { name; labels = List.sort compare labels }

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let resolve (reg : registry) key fresh =
  match Hashtbl.find_opt reg key with
  | Some existing -> existing
  | None ->
      let inst = fresh () in
      Hashtbl.replace reg key inst;
      inst

let mismatch key ~want inst =
  invalid_arg
    (Printf.sprintf "Metrics: %s already registered as a %s, not a %s" key.name
       (kind_name inst) want)

let counter reg ?labels name =
  let key = normalize ?labels name in
  match resolve reg key (fun () -> C (ref 0)) with
  | C c -> c
  | inst -> mismatch key ~want:"counter" inst

let gauge reg ?labels name =
  let key = normalize ?labels name in
  match resolve reg key (fun () -> G (ref 0.0)) with
  | G g -> g
  | inst -> mismatch key ~want:"gauge" inst

let histogram reg ?labels ~buckets name =
  let key = normalize ?labels name in
  match resolve reg key (fun () -> H (Stats.Histogram.create ~buckets)) with
  | H h -> h
  | inst -> mismatch key ~want:"histogram" inst

let incr (c : counter) = Stdlib.incr c
let add (c : counter) n = c := !c + n
let counter_value (c : counter) = !c
let reset_counter (c : counter) = c := 0
let set (g : gauge) v = g := v
let gauge_value (g : gauge) = !g
let observe (h : histogram) x = Stats.Histogram.observe h x
let hist (h : histogram) = h

let value_of = function
  | C c -> Counter_v !c
  | G g -> Gauge_v !g
  | H h -> Histogram_v h

let find reg ?labels name =
  Option.map value_of (Hashtbl.find_opt reg (normalize ?labels name))

let sorted_bindings (reg : registry) =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) reg []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let fold reg ~init ~f =
  List.fold_left
    (fun acc (key, inst) ->
      f acc ~name:key.name ~labels:key.labels (value_of inst))
    init (sorted_bindings reg)

(* ------------------------------------------------------------------ *)
(* JSON export *)

let float_json f =
  if Float.is_nan f then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%g" f

let labels_json labels =
  labels
  |> List.map (fun (k, v) -> Printf.sprintf {|"%s":"%s"|} (Json.escape k) (Json.escape v))
  |> String.concat ","

let to_json reg =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"metrics\":[";
  let first = ref true in
  List.iter
    (fun (key, inst) ->
      if !first then first := false else Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\n  {\"name\":\"%s\",\"labels\":{%s},"
           (Json.escape key.name) (labels_json key.labels));
      (match inst with
      | C c -> Buffer.add_string b (Printf.sprintf "\"type\":\"counter\",\"value\":%d}" !c)
      | G g ->
          Buffer.add_string b
            (Printf.sprintf "\"type\":\"gauge\",\"value\":%s}" (float_json !g))
      | H h ->
          Buffer.add_string b
            (Printf.sprintf
               "\"type\":\"histogram\",\"count\":%d,\"sum\":%s,\"mean\":%s,\"buckets\":["
               (Stats.Histogram.count h)
               (float_json (Stats.Histogram.sum h))
               (float_json (Stats.Histogram.mean h)));
          let bucket_array pairs =
            Array.iteri
              (fun i (edge, count) ->
                if i > 0 then Buffer.add_char b ',';
                let le =
                  if Float.is_integer edge && Float.abs edge < 1e15 then
                    Printf.sprintf "%.0f" edge
                  else if edge = Float.infinity then {|"+inf"|}
                  else Printf.sprintf "%g" edge
                in
                Buffer.add_string b
                  (Printf.sprintf {|{"le":%s,"count":%d}|} le count))
              pairs
          in
          bucket_array (Stats.Histogram.buckets h);
          (* Prometheus-style running totals, so external tools (and the
             analyzer) can recompute quantiles without re-summing. *)
          Buffer.add_string b "],\"cumulative\":[";
          bucket_array (Stats.Histogram.cumulative h);
          Buffer.add_string b "]}"))
    (sorted_bindings reg);
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let write_json reg path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json reg))
