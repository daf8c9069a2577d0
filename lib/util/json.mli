(** JSON string escaping shared by every hand-written JSON emitter
    (traces, metrics, profiles, analysis reports, bench results). *)

val escape : string -> string
(** The body of a JSON string literal for [s], without the surrounding
    quotes: ['"'] and ['\\'] are backslash-escaped, newline becomes
    [\n] and every other control character below [0x20] becomes
    [\u00XX]. Bytes from [0x20] up pass through unchanged. *)
