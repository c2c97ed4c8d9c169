"""Checks run.py applies to the executor's result before trusting it.

The executor counts its own failed operations (mismatched simulated
pairs, render differences, short sampled intervals, fuzz divergences).
These checks are repeated here on the raw observations it reports:

  - the simulated checksum must be the FNV-1a hash of the reported
    (cycles, retired) pairs, so a forged checksum is rejected;
  - every serve response must be "ok", answer its own id, and retire
    exactly what a direct run of the same job retires; "ok" with zero
    instructions retired and "halted" is a failure, not a result.
"""

import json

FNV_OFFSET = 14695981039346656037
FNV_PRIME = 1099511628211
MASK = (1 << 64) - 1


def _fnv_u64(h, v):
    for i in range(8):
        h ^= (v >> (8 * i)) & 0xFF
        h = (h * FNV_PRIME) & MASK
    return h


def checksum(pairs):
    """FNV-1a over each (cycles, retired) pair, little-endian u64s."""
    h = FNV_OFFSET
    for cycles, retired in pairs:
        h = _fnv_u64(_fnv_u64(h, cycles), retired)
    return "%016x" % h


def check_serve_response(rec):
    """None when the response is a correct answer, else why not.

    @rec: {"id", "expected_retired", "response": raw line, "checked"}.
    Unchecked records (rate step-up probes) may be refused, but an
    answer they do give must still be right.
    """
    line = rec["response"]
    if not line:
        return "request %d: no response" % rec["id"]
    try:
        resp = json.loads(line)
    except ValueError:
        return "request %d: malformed response" % rec["id"]
    status = resp.get("status")
    if status != "ok":
        if not rec.get("checked", True) and status == "overloaded":
            return None
        return "request %d: status %r" % (rec["id"], status)
    if resp.get("id") != rec["id"]:
        return "request %d: answered id %r" % (rec["id"], resp.get("id"))
    if resp.get("retired") == 0 and resp.get("halted"):
        return "request %d: ok with 0 retired and halted" % rec["id"]
    if resp.get("retired") != rec["expected_retired"]:
        return "request %d: retired %r, direct run retires %d" % (
            rec["id"], resp.get("retired"), rec["expected_retired"])
    return None


def check_result(result):
    """(problems, extra attempted operations) for an executor result."""
    problems = []
    if checksum(result["pairs"]) != result["checksum"]:
        problems.append("simulated checksum does not match its pairs")
    responses = result.get("serve_responses", [])
    for rec in responses:
        why = check_serve_response(rec)
        if why:
            problems.append(why)
    attempted = sum(1 for r in responses if r.get("checked", True))
    return problems, attempted
