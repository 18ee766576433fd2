"""Smoke-test a running ``repro-agu serve`` endpoint.

Fires one concurrent wave of compile requests at the endpoint, then
repeats the identical wave, and asserts the serving contract end to
end:

* every request in both waves succeeds;
* the repeat wave is answered entirely from cache (``cached: true``)
  with **zero additional compiles** in the server's counters;
* every repeat response is bit-identical to its first-wave answer
  (same digest, same result payload);
* one ``listing=true`` request answers the listing a direct
  ``compile_kernel(source, spec, run_simulation=False)`` renders here.

Exit code 0 on success, 1 with a diagnostic on any violation -- CI
runs this against a backgrounded ``repro-agu serve``.

Usage::

    PYTHONPATH=src python tools/serve_smoke.py tcp://127.0.0.1:8743
"""

from __future__ import annotations

import argparse
import sys
import threading

#: The kernel-library rotation the smoke requests (distinct digests).
KERNELS = ("fir8", "saxpy", "energy", "vector_add", "dot_product",
           "moving_average4", "convolution8", "goertzel")


def fire_wave(client, n_requests: int) -> list:
    """``n_requests`` concurrent compile requests; returns the answers
    in request order (an Exception instance in a failed slot)."""
    answers: list = [None] * n_requests

    def request(slot: int) -> None:
        try:
            answers[slot] = client.compile(
                kernel=KERNELS[slot % len(KERNELS)], iterations=8)
        # The thread must capture, not die: the main thread turns
        # whatever happened into the process exit code.
        except Exception as error:  # noqa: BLE001
            answers[slot] = error

    threads = [threading.Thread(target=request, args=(slot,))
               for slot in range(n_requests)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300.0)
    return answers


#: The kernel of the ``listing=true`` request (sent as source text)
#: and the AGU spec it asks for.
LISTING_KERNEL = "complex_mac"
LISTING_REGISTERS = 4
LISTING_MODIFY_RANGE = 1


def check_listing(client) -> str | None:
    """Ask the server for one kernel's listing; a diagnostic when it
    differs from the listing a direct compile renders, else None."""
    from repro.agu.model import AguSpec
    from repro.core.pipeline import compile_kernel
    from repro.workloads.kernels import get_kernel

    source = get_kernel(LISTING_KERNEL).source
    answer = client.compile(source, name=LISTING_KERNEL, listing=True,
                            registers=LISTING_REGISTERS,
                            modify_range=LISTING_MODIFY_RANGE)
    spec = AguSpec(LISTING_REGISTERS, LISTING_MODIFY_RANGE)
    direct = compile_kernel(source, spec, run_simulation=False,
                            name=LISTING_KERNEL)
    if answer.listing != direct.listing:
        return (f"the served {LISTING_KERNEL} listing differs from a "
                f"direct compile's:\n{answer.listing}\n---\n"
                f"{direct.listing}")
    return None


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        description="smoke-test a running repro-agu serve endpoint "
                    "(concurrent wave + cache-hot repeat)")
    parser.add_argument("endpoint",
                        help="the serve endpoint, e.g. "
                             "tcp://127.0.0.1:8743")
    parser.add_argument("--requests", type=int, default=16,
                        help="requests per wave (default: 16)")
    args = parser.parse_args(argv)

    from repro.batch.serving import ServeClient

    client = ServeClient(args.endpoint, timeout=300.0,
                         pool_size=8, busy_retries=10)
    if not client.ping():
        print(f"FAIL: no serve endpoint answering at {args.endpoint}")
        return 1

    first = fire_wave(client, args.requests)
    failures = [answer for answer in first
                if isinstance(answer, Exception)]
    if failures:
        print(f"FAIL: {len(failures)} first-wave request(s) failed; "
              f"first error: {failures[0]}")
        return 1
    compiled_after_first = client.server_stats()["compiled"]

    repeat = fire_wave(client, args.requests)
    stats = client.server_stats()
    for slot, (cold, warm) in enumerate(zip(first, repeat)):
        if isinstance(warm, Exception):
            print(f"FAIL: repeat request #{slot} failed: {warm}")
            return 1
        if not warm.cached:
            print(f"FAIL: repeat request #{slot} was not served from "
                  f"cache")
            return 1
        if warm.digest != cold.digest:
            print(f"FAIL: repeat request #{slot} changed digest "
                  f"({cold.digest} -> {warm.digest})")
            return 1
        if warm.result.payload() != cold.result.payload():
            print(f"FAIL: repeat request #{slot} answered a different "
                  f"result payload")
            return 1
    if stats["compiled"] != compiled_after_first:
        print(f"FAIL: the repeat wave recompiled "
              f"({compiled_after_first} -> {stats['compiled']} "
              f"compile(s))")
        return 1

    mismatch = check_listing(client)
    if mismatch is not None:
        print(f"FAIL: {mismatch}")
        return 1

    print(f"serve smoke OK: {args.requests} requests/wave, "
          f"{stats['compiled']} compiled, {stats['served_warm']} warm, "
          f"{stats['batches']} micro-batch(es), "
          f"{stats['busy_rejections']} busy-rejected; repeat wave was "
          f"100% cache-hot and bit-identical; the listing=true answer "
          f"equals a direct compile's")
    return 0


if __name__ == "__main__":
    sys.exit(main())
