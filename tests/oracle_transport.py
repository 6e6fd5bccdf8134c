"""The tensor-by-tensor update codec the flush encoder replaced.

:meth:`repro.fl.transport.TransportCodec.encode_update` encodes a whole
flush at once: each (dtype, shapes) block of its updates is top-k'd,
quantized and decoded as a few whole-block array ops.  The methods below
are the per-update, per-tensor forms that replaced, kept verbatim as the
oracle ``tests/test_transport.py`` holds the flush encoder to, byte for
byte: decoded params, residuals, ``bytes_up`` and ``round_time``.

Run an :class:`OracleCodec` update by update, in flush order.  It keeps
its residuals per tensor, in ``_residuals``; :func:`residual_map` decodes a
``TransportCodec/v3`` payload to that form and :func:`tables_payload`
encodes it.  The flush encoder drops a (model, scope)'s residuals when its
tree arrives in another layout; the per-tensor encode does not, so a
caller that changes a model's layout applies that rule to ``_residuals``.
"""

from __future__ import annotations

import numpy as np

from repro.fl.transport import (
    _CHUNK_ROWS,
    TransportCodec,
    bf16_decode,
    bf16_encode,
    encode_indices,
    rle_encode_bytes,
)


def residual_map(payload: dict) -> dict:
    """``(client, model, scope, key) -> residual`` of a ``TransportCodec/v3``
    payload: every tensor a row of a table holds."""
    out = {}
    for table in payload["tables"]:
        rows = np.concatenate(table["values"]) if table["values"] else None
        sizes = [int(np.prod(shape)) for shape in table["shapes"]]
        starts = np.cumsum([0, *sizes])
        for r, cid in enumerate(table["client_id"].tolist()):
            for t, key in enumerate(table["keys"]):
                if table["present"][r, t]:
                    out[(cid, table["model_id"], table["scope"], key)] = (
                        rows[r, starts[t] : starts[t + 1]].reshape(table["shapes"][t])
                    )
    return out


def tables_payload(spec: str, residuals: dict, layouts: dict | None = None) -> dict:
    """A ``TransportCodec/v3`` payload holding exactly ``residuals``, a
    :func:`residual_map` of one layout per (model, scope): one table per
    (model, scope), rows in the map's order.  ``layouts`` maps a (model,
    scope) to its table's ``(keys, shapes)``; by default its residuals'
    keys, in the map's order, and their shapes."""
    groups: dict[tuple, dict] = {}
    for (cid, mid, scope, key), arr in residuals.items():
        groups.setdefault((mid, scope), {}).setdefault(cid, {})[key] = arr
    tables = []
    for (mid, scope), rows in groups.items():
        held = {key: arr.shape for row in rows.values() for key, arr in row.items()}
        keys, shapes = (layouts or {}).get((mid, scope), (list(held), list(held.values())))
        (dtype,) = {arr.dtype for row in rows.values() for arr in row.values()}
        starts = np.cumsum([0, *(int(np.prod(shape)) for shape in shapes)])
        values = np.zeros((len(rows), starts[-1]), dtype=dtype)
        present = np.zeros((len(rows), len(keys)), dtype=bool)
        for r, row in enumerate(rows.values()):
            for t, key in enumerate(keys):
                if key in row:
                    if row[key].shape != tuple(shapes[t]):
                        raise ValueError(f"{mid} {scope}: residuals of two layouts")
                    values[r, starts[t] : starts[t + 1]] = np.ravel(row[key])
                    present[r, t] = True
        if present.sum() != sum(map(len, rows.values())):
            raise ValueError(f"{mid} {scope}: a residual outside its layout")
        tables.append({
            "model_id": mid, "scope": scope, "dtype": dtype.str, "keys": list(keys),
            "shapes": [list(shape) for shape in shapes],
            "client_id": np.array(list(rows), dtype=np.int64),
            "present": present,
            "values": [values[i : i + _CHUNK_ROWS] for i in range(0, len(rows), _CHUNK_ROWS)],
        })
    return {"schema": TransportCodec.schema, "spec": spec, "tables": tables}


class OracleCodec(TransportCodec):
    """A :class:`TransportCodec` whose encode is the per-tensor original,
    over a per-tensor residual dict."""

    def __init__(self, config):
        super().__init__(config)
        self._residuals: dict[tuple[int, str, str, str], np.ndarray] = {}

    def state_dict(self) -> dict:
        return tables_payload(self.config.spec, self._residuals)

    def encode_update(
        self,
        update,
        reference=None,
        device=None,
        wire_time: bool = False,
    ) -> None:
        """Encode one :class:`~repro.fl.types.ClientUpdate` in place.

        ``reference`` is the dispatch-time server model (or ``None`` when
        it is gone); its parameter tree anchors delta coding.  ``device``
        supplies the bandwidth for the optional ``wire_time`` re-pricing.
        """
        if not self.config.has_update:
            return
        ref_params = dict(reference.params()) if reference is not None else {}
        ref_state = dict(reference.state()) if reference is not None else {}
        wire = 0
        wire += self._encode_tree(
            update.client_id, update.model_id, "param", update.params, ref_params
        )
        wire += self._encode_tree(
            update.client_id, update.model_id, "state", update.state, ref_state
        )
        raw = int(update.raw_bytes_up)
        update.bytes_up = int(wire)
        if wire_time and device is not None:
            # Re-price only the upload leg: download and training stand.
            update.round_time += (wire - raw) / device.bandwidth

    def _encode_tree(
        self,
        client_id: int,
        model_id: str,
        scope: str,
        tree: dict,
        ref_tree: dict,
    ) -> int:
        """Encode one param/state tree in place; returns its wire bytes."""
        cfg = self.config
        wire = 0
        for key in tree:
            arr = np.ascontiguousarray(tree[key])
            ref = ref_tree.get(key)
            if ref is not None and (
                ref.shape != arr.shape or ref.dtype != arr.dtype
            ):
                ref = None
            # Poisoned tensors ship raw so the quarantine NaN scan still
            # fires on exactly the values the client produced.
            if not np.isfinite(arr).all():
                wire += arr.nbytes
                continue
            if cfg.update_rle:
                if ref is not None:
                    packed = rle_encode_bytes(
                        arr.tobytes(), np.ascontiguousarray(ref).tobytes()
                    )
                    wire += len(packed) if packed is not None else arr.nbytes
                else:
                    wire += arr.nbytes
                continue  # lossless: values untouched
            delta = arr - ref if ref is not None else arr.copy()
            rkey = (client_id, model_id, scope, key)
            residual = self._residuals.get(rkey)
            if residual is not None and residual.shape == delta.shape:
                delta = delta + residual
            nbytes, decoded = self._lossy_encode(delta)
            self._residuals[rkey] = delta - decoded
            tree[key] = ref + decoded if ref is not None else decoded
            wire += nbytes
        return wire

    def _lossy_encode(self, delta: np.ndarray) -> tuple[int, np.ndarray]:
        """Top-k + quantize one delta; returns ``(wire_bytes, decoded)``."""
        cfg = self.config
        flat = np.ravel(delta)
        n = flat.size
        wire = 0
        idx: np.ndarray | None = None
        if cfg.update_topk is not None:
            k = max(1, int(np.ceil(cfg.update_topk * n)))
            if k < n:
                # Stable selection: magnitude first, index breaks ties, so
                # every backend keeps the same k coordinates.  Partition
                # finds the k-th magnitude in O(n); usually exactly k
                # elements reach it and one flatnonzero yields them already
                # index-sorted.  Boundary ties (> k candidates) keep the
                # lowest tied indices — exactly the
                # lexsort((index, -magnitude)) selection, much cheaper.
                mag = np.abs(flat)
                kth = np.partition(mag, n - k)[n - k]
                idx = np.flatnonzero(mag >= kth)
                if idx.size > k:
                    gt = mag[idx] > kth
                    keep = k - np.count_nonzero(gt)
                    idx = np.concatenate((idx[gt], idx[~gt][:keep]))
                    idx.sort()
                wire += len(encode_indices(idx, n))
        values = flat[idx] if idx is not None else flat
        if cfg.update_quantizer == "int8":
            # Symmetric int8: scale = max|x| / 127 and clip(rint(x/scale)),
            # so equal inputs quantize equally on every backend; 1 byte per
            # element plus the scale on the wire, and an all-zero tensor has
            # scale 0 and decodes to exact zeros.  The max-magnitude element
            # always survives top-k, so the selected max equals the overall
            # max — when mag is already paid for, skip a second abs.
            if idx is not None:
                amax = float(mag.max()) if n else 0.0
            else:
                amax = float(np.max(np.abs(values))) if n else 0.0
            wire += values.size + 8  # 8: the float64 scale on the wire
            scale = amax / 127.0
            if scale == 0.0:
                decoded_values = np.zeros(values.shape, dtype=values.dtype)
            else:
                q = np.clip(np.rint(values / scale), -127, 127).astype(np.int8)
                decoded_values = q.astype(values.dtype) * values.dtype.type(
                    scale
                )
        elif cfg.update_quantizer == "bf16":
            payload = bf16_encode(values)
            wire += len(payload)
            decoded_values = bf16_decode(payload, values.shape, values.dtype)
        else:
            wire += values.nbytes
            decoded_values = values.copy()
        if idx is not None:
            decoded = np.zeros(n, dtype=flat.dtype)
            decoded[idx] = decoded_values
        else:
            decoded = decoded_values
        return wire, decoded.reshape(delta.shape)
