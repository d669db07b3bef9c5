"""Minimal numpy autograd + neural-network substrate.

The paper implements its models in PyTorch/C++; this package provides the
equivalent functionality from scratch so the reproduction has no deep
learning framework dependency: reverse-mode autograd tensors, LSTM
seq2seq stacks with attention, the caching and baseline losses, the
Adam optimizer and the one training loop every trainer runs
(:func:`~repro.nn.optim.train_minibatches`).  The paper's
Chamfer-measure loss (Eq. 5) is
:func:`repro.core.training._chamfer_ce_loss`.

``__all__`` holds what the models, losses and baselines outside this
package import; the layers those build on (``LSTMCell``,
``Seq2SeqStack``, ``LuongAttention``, ``stack``) and the loop's parts
(``optimizer_step``, ``clip_grad_norm``) stay in their modules.
"""

from .tensor import Tensor, concat
from .functional import softmax, log_softmax
from .modules import Module, Linear, Embedding, MLP
from .rnn import LSTM, StackedSeq2Seq
from .attention import SelfAttention
from .losses import l2_loss, bce_with_logits, cross_entropy
from .optim import Adam, train_minibatches

__all__ = [
    "Tensor", "concat",
    "softmax", "log_softmax",
    "Module", "Linear", "Embedding", "MLP",
    "LSTM", "StackedSeq2Seq",
    "SelfAttention",
    "l2_loss", "bce_with_logits", "cross_entropy",
    "Adam", "train_minibatches",
]
