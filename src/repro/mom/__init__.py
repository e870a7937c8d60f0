"""AMQP-semantics message-oriented middleware (the RabbitMQ stand-in).

Public surface::

    from repro.mom import MessageBroker, Message

    broker = MessageBroker()
    broker.declare_queue("work")
    broker.consume("work", lambda delivery: print(delivery.message.body),
                   consumer_tag="printer", auto_ack=True)
    broker.publish("", "work", Message(b"payload"))  # printed before it returns
"""

from repro.mom.broker_server import DEFAULT_EXCHANGE, BrokerStats, MessageBroker
from repro.mom.exchange import DirectExchange, Exchange, FanoutExchange
from repro.mom.message import Delivery, Message
from repro.mom.queue import Consumer, MessageQueue
from repro.mom.transport import MomTransport

__all__ = [
    "DEFAULT_EXCHANGE",
    "BrokerStats",
    "Consumer",
    "Delivery",
    "DirectExchange",
    "Exchange",
    "FanoutExchange",
    "Message",
    "MessageBroker",
    "MessageQueue",
    "MomTransport",
]
