(** SHA-256 (FIPS 180-4), implemented in this repository.

    The protocol needs collision-resistant digests for vertex ids, block
    digests and signature material, and no hashing library is a dependency
    ([digestif] is not used). Block compression runs on the x86 SHA
    extensions (SHA-NI, sha256_stubs.c) when CPUID reports them, and on the
    OCaml compression function otherwise. The two compute the same function,
    so every digest is identical on either path; the OCaml code is also the
    oracle the tests hold the kernel to. Verified in the test suite against
    the RFC 6234 / NIST test vectors on both paths. *)

type ctx

val accelerated : bool
(** Whether this process compresses with the SHA-NI kernel: CPUID is read
    once, at module initialisation. Nothing else selects the path. *)

val init : unit -> ctx

val feed_string : ctx -> string -> unit
val feed_bytes : ctx -> bytes -> pos:int -> len:int -> unit

val finalize : ctx -> string
(** Returns the 32-byte raw digest and invalidates the context. *)

val digest_string : string -> string
(** One-shot convenience; 32 raw bytes. Runs inside {!section}. *)

val section : Clanbft_obs.Prof.section
(** The profiler section ["sha256"]. {!digest_string} enters it; callers
    that stream their own preimage through a context (block and vertex
    digests) enter it once per digest, so the section carries all hashing. *)

val hex_of_string : string -> string
(** [hex_of_string s] is the lowercase hex digest of [s]. *)

(** The same operations over the OCaml compression alone, never the
    kernel: the oracle for tests. Feed a context from {!init} either here
    or above, not both. *)
module Reference : sig
  val feed_string : ctx -> string -> unit
  val feed_bytes : ctx -> bytes -> pos:int -> len:int -> unit
  val finalize : ctx -> string
  val digest_string : string -> string
end
