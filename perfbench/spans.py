"""Span tracing for the benchmark's traced runs.

Entering a `Tracer` swaps each traced seiznet function for a timing wrapper
at every module attribute that holds it, including names imported by value
(`seiznet.cli.predict_probs`, `seiznet.optim.model_forward`), and patches
`Adam.step` on its class; leaving it puts the originals back. The program's
files are not changed.

Each wrapper records one span: name, start, end, parent span and request id.
Spans are kept in flat int64 arrays, so even a stream run with half a million
spans costs a few tens of MB, and are summarised or written out at the end.
Kernel spans also record the call's computed FLOP count and bytes moved.
"""

import importlib
import sys
import time
from array import array

import numpy as np

# (module, attribute, span name); "Adam.step" is patched on the class.
TRACED = [
    ("cli", "cmd_train", "cli.cmd_train"),
    ("cli", "cmd_predict", "cli.cmd_predict"),
    ("dataset", "load_features_csv", "dataset.load_features_csv"),
    ("dataset", "synthesize", "dataset.synthesize"),
    ("preprocess", "wavelet_denoise", "preprocess.wavelet_denoise"),
    ("preprocess", "fit_scaler", "preprocess.fit_scaler"),
    ("preprocess", "apply_scaler", "preprocess.apply_scaler"),
    ("artifact", "load_artifact", "artifact.load_artifact"),
    ("artifact", "save_artifact", "artifact.save_artifact"),
    ("model", "model_forward", "model.model_forward"),
    ("model", "model_backward", "model.model_backward"),
    ("model", "predict_probs", "model.predict_probs"),
    *[("layers", f"{layer}_{d}", f"layers.{layer}_{d}")
      for layer in ("conv1d", "batchnorm", "maxpool", "mha", "layernorm",
                    "dense", "relu", "dropout")
      for d in ("forward", "backward")],
    ("kernels", "conv1d_forward", "kernels.conv1d_forward"),
    ("kernels", "conv1d_backward", "kernels.conv1d_backward"),
    ("kernels", "maxpool_forward", "kernels.maxpool_forward"),
    ("kernels", "maxpool_backward", "kernels.maxpool_backward"),
    ("optim", "train", "optim.train"),
    ("optim", "evaluate", "optim.evaluate"),
    ("optim", "bce_loss", "optim.bce_loss"),
    ("optim", "Adam.step", "optim.Adam.step"),
]

# model_forward is reported per mode; every other function under its own name.
SPAN_NAMES = [n for _, _, n in TRACED if n != "model.model_forward"] + [
    "model.model_forward.train", "model.model_forward.infer"]

CONV_STAGES = (1, 32, 64)           # C_in of the three conv stages
BATCH_CLASSES = ("n1", "n32", "n256")


def batch_class(n):
    """Training batches are 32 rows (33 when a trailing row is folded in),
    inference chunks up to 256 and stream calls 1."""
    if n == 1:
        return "n1"
    return "n32" if n <= 64 else "n256"


def _conv_forward_work(x, w, b):
    n, length, c_in = x.shape
    k, _, c_out = w.shape
    flops = 2 * n * length * k * c_in * c_out + n * length * c_out
    nbytes = 8 * (x.size + w.size + b.size + n * length * c_out)
    return f"c{c_in}.{batch_class(n)}", flops, nbytes


def _conv_backward_work(x, w, grad_out):
    n, length, c_in = x.shape
    k, _, c_out = w.shape
    # grad_w and grad_x each cost one forward's multiply-adds; grad_b one sum
    flops = 4 * n * length * k * c_in * c_out + n * length * c_out
    nbytes = 8 * (2 * x.size + 2 * w.size + grad_out.size + c_out)
    return f"c{c_in}.{batch_class(n)}", flops, nbytes


def _pool_forward_work(x):
    n, length, c = x.shape
    half = length // 2
    # read x, write the pooled values and their int64 argmax indices
    return f"c{c}.{batch_class(n)}", n * half * c, 8 * (x.size + 2 * n * half * c)


def _pool_backward_work(grad_out, idx, length):
    n, half, c = grad_out.shape
    return f"c{c}.{batch_class(n)}", 0, 8 * (grad_out.size + idx.size + n * length * c)


WORK = {
    "kernels.conv1d_forward": _conv_forward_work,
    "kernels.conv1d_backward": _conv_backward_work,
    "kernels.maxpool_forward": _pool_forward_work,
    "kernels.maxpool_backward": _pool_backward_work,
}


class Tracer:
    """Records spans while entered. Requests are numbered by the caller
    (`new_request`), or automatically at each span named in `request_spans`."""

    def __init__(self, request_spans=()):
        self.names = list(SPAN_NAMES)
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self._request_ids = {self._name_id[n] for n in request_spans}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.request = array("q")
        self.request_id = 0
        self._stack = []
        # (kernel span name, tag) -> [calls, flops, bytes, ns]
        self.kernel_work = {}
        self._patched = []

    def new_request(self):
        self.request_id += 1

    def _wrap(self, span_name, fn):
        clock = time.perf_counter_ns
        stack = self._stack
        work = WORK.get(span_name)
        if span_name == "model.model_forward":
            train_id = self._name_id["model.model_forward.train"]
            infer_id = self._name_id["model.model_forward.infer"]

            def name_of(args, kwargs):
                mode = args[3] if len(args) > 3 else kwargs.get("mode", "infer")
                return train_id if mode == "train" else infer_id
        else:
            fixed_id = self._name_id[span_name]

            def name_of(args, kwargs):
                return fixed_id

        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs)
            if name in self._request_ids:
                self.request_id += 1
            i = len(self.start)
            self.name.append(name)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.request_id)
            self.end.append(0)
            stack.append(i)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.end[i] = t1
                stack.pop()
                if work is not None:
                    tag, flops, nbytes = work(*args, **kwargs)
                    acc = self.kernel_work.setdefault((span_name, tag), [0, 0, 0, 0])
                    acc[0] += 1
                    acc[1] += flops
                    acc[2] += nbytes
                    acc[3] += t1 - self.start[i]

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        """Patch every seiznet module attribute that holds a traced function."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        homes = {m: importlib.import_module(f"seiznet.{m}") for m, _, _ in TRACED}
        mods = [m for n, m in list(sys.modules.items())
                if n == "seiznet" or n.startswith("seiznet.")]
        for mod_name, attr, span_name in TRACED:
            home = homes[mod_name]
            if attr == "Adam.step":
                original = home.Adam.step
                self._patched.append((home.Adam, "step", original))
                home.Adam.step = self._wrap(span_name, original)
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(span_name, original)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapped)
        return self

    def __exit__(self, *exc):
        for obj, key, original in reversed(self._patched):
            setattr(obj, key, original)
        self._patched = []

    # -- results ----------------------------------------------------------

    def arrays(self):
        """(name, start, end, parent, request) as int64 numpy arrays."""
        return tuple(np.frombuffer(a, dtype=np.int64) if len(a) else
                     np.empty(0, dtype=np.int64)
                     for a in (self.name, self.start, self.end, self.parent,
                               self.request))

    def self_times_ns(self):
        """Per span: duration minus the time its direct children cover.
        Spans come from one thread and nest, so children never overlap."""
        _, start, end, parent, _ = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur)) if len(dur) else np.zeros(0)
        return dur, dur - child.astype(np.int64)

    def per_name(self):
        """{span name: (calls, total self seconds)} for every traced name."""
        name = self.arrays()[0]
        _, self_ns = self.self_times_ns()
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_ns, minlength=k) / 1e9
        return {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(self.names)}

    def total_s(self, names):
        """Summed duration, in seconds, of the spans with the given names."""
        name, start, end, _, _ = self.arrays()
        ids = [self._name_id[n] for n in names]
        return float((end - start)[np.isin(name, ids)].sum()) / 1e9

    def dump(self, path):
        name, start, end, parent, request = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, start_ns=start,
                 end_ns=end, parent=parent, request=request)
