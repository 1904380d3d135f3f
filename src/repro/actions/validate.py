"""Static validation of compiled action lists.

Two properties are checked before anything executes:

* **Matching** — every ``Send`` has exactly one ``Recv`` with the same
  tag on the addressed peer, and vice versa.
* **Deadlock freedom** — executing all workers' programs concurrently
  cannot stall.  We model execution abstractly: computes always
  complete, buffered sends never block, recvs block until the matching
  send has been *issued*.  Under a rendezvous backend sends also block
  until the matching recv is posted, which is the NCCL mode whose wave-
  turn hazard the paper works around with ``batch_isend_irecv``; pass
  ``rendezvous=True`` to check that stricter model.
"""

from __future__ import annotations

from ..errors import DeadlockError, ValidationError
from .ops import Action, BatchedP2P, Recv, Send, Tag


def check_matching(lists: dict[int, list[Action]]) -> None:
    """Every send has a unique matching recv on the peer (and vice versa)."""
    sends: dict[tuple[int, int, Tag], int] = {}
    recvs: dict[tuple[int, int, Tag], int] = {}
    for device, actions in lists.items():
        for act in actions:
            items = (
                list(act.sends) + list(act.recvs)
                if isinstance(act, BatchedP2P) else [act]
            )
            for item in items:
                if isinstance(item, Send):
                    key = (device, item.peer, item.tag)
                    sends[key] = sends.get(key, 0) + 1
                elif isinstance(item, Recv):
                    key = (item.peer, device, item.tag)
                    recvs[key] = recvs.get(key, 0) + 1
    if sends != recvs:
        only_send = {k for k, n in sends.items() if recvs.get(k, 0) != n}
        only_recv = {k for k, n in recvs.items() if sends.get(k, 0) != n}
        sample = list(sorted(only_send | only_recv))[:4]
        raise ValidationError(
            f"unmatched send/recv pairs: {len(only_send | only_recv)}, "
            f"e.g. {[(s, d, str(t)) for s, d, t in sample]}"
        )


def check_deadlock_free(lists: dict[int, list[Action]],
                        rendezvous: bool = False) -> None:
    """Abstract-execute all workers; raise DeadlockError if they stall.

    Buffered model (default): recv blocks on missing send.  Rendezvous
    model: send also blocks until the matching recv is posted —
    ``BatchedP2P`` posts its whole group at once, which is what makes
    opposing wave-turn exchanges safe.
    """
    cursors = {d: 0 for d in lists}
    issued_sends: set[tuple[int, int, Tag]] = set()
    posted_recvs: set[tuple[int, int, Tag]] = set()

    def send_ok(device: int, send: Send) -> bool:
        return not rendezvous or (device, send.peer, send.tag) in posted_recvs

    def recv_ok(device: int, recv: Recv) -> bool:
        return (recv.peer, device, recv.tag) in issued_sends

    total = sum(len(a) for a in lists.values())
    done = 0
    while done < total:
        progressed = False
        for device, actions in lists.items():
            while cursors[device] < len(actions):
                act = actions[cursors[device]]
                if isinstance(act, BatchedP2P):
                    # Post everything in the group, then wait: posts
                    # always succeed; the waits need matching sends.
                    for r in act.recvs:
                        posted_recvs.add((r.peer, device, r.tag))
                    for s in act.sends:
                        issued_sends.add((device, s.peer, s.tag))
                    if not all(recv_ok(device, r) for r in act.recvs):
                        break
                elif isinstance(act, Send):
                    if not send_ok(device, act):
                        break
                    issued_sends.add((device, act.peer, act.tag))
                elif isinstance(act, Recv):
                    posted_recvs.add((act.peer, device, act.tag))
                    if not recv_ok(device, act):
                        break
                cursors[device] += 1
                done += 1
                progressed = True
        if not progressed and done < total:
            heads = {
                d: str(lists[d][cursors[d]])
                for d in lists if cursors[d] < len(lists[d])
            }
            raise DeadlockError(
                f"action lists deadlock under "
                f"{'rendezvous' if rendezvous else 'buffered'} comm; "
                f"blocked heads: {heads}"
            )


def validate_actions(lists: dict[int, list[Action]],
                     rendezvous: bool = False) -> None:
    check_matching(lists)
    check_deadlock_free(lists, rendezvous=rendezvous)
